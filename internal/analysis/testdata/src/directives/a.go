// Package directives is a deliberately unhygienic fixture for
// VerifyDirectives: an unknown verb, a retired verb, an allow naming a
// nonexistent analyzer, and an allow that suppresses nothing.
package directives

// a carries a typo'd directive verb.
//
//eqlint:frobnicate
func a() int {
	return 1
}

// c carries a marker whose analyzer no longer exists; it must not linger.
//
//eqlint:hotpath
func c() int {
	return 2
}

func b() int {
	//eqlint:allow nosuchanalyzer -- typo: there is no such analyzer
	x := a()
	//eqlint:allow errstrict -- nothing on the next line errors
	x += a()
	return x
}
