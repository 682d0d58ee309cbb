package sm

// UseScanIssue makes s issue from the linear-scan reference instead of the
// bitset path for the rest of its life.
func UseScanIssue(s *SM) { s.refIssue = s.scanIssue }
