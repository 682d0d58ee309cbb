package sm

import (
	"equalizer/internal/clock"
	"equalizer/internal/warp"
)

// scanIssue is the issue stage as a per-warp linear scan in round-robin
// order: the reference the bitset path (issueFast) must match cycle for
// cycle. It classifies each warp from its slot state, applies barrier and
// exit heads the moment it meets them, and leaves the scheduler masks dirty
// because it maintains none of them.
func (s *SM) scanIssue(now clock.Time, smPeriod clock.Time) {
	s.masksDirty = true
	snap := Snapshot{}
	n := len(s.warps)
	bestALU, bestMEM, bestTEX := -1, -1, -1
	lsuSpace := len(s.lsu) < s.cfg.LSUQueueDepth
	texSpace := len(s.tex) < TexQueueDepth
	readyALU, readyMEM := 0, 0

	for off := 0; off < n; off++ {
		ws := (s.rrALU + off) % n
		w := &s.warps[ws]
		if !w.valid || w.finished {
			continue
		}
		if s.blocks[w.block].paused {
			continue
		}
		snap.Active++
		if w.atBarrier {
			snap.Others++
			continue
		}
		if w.pendingLines > 0 || now < w.readyAt {
			snap.Waiting++
			continue
		}
		if !w.hasCur {
			w.cur = w.stream.Next()
			w.hasCur = true
		}
		switch w.cur.Kind {
		case warp.ALU, warp.SFU:
			readyALU++
			if bestALU < 0 {
				bestALU = ws
			}
		case warp.MEM:
			if s.memIssueMask&(1<<uint(ws)) == 0 {
				// Policy-throttled warp: counts as waiting, not Xmem.
				snap.Waiting++
				continue
			}
			readyMEM++
			if bestMEM < 0 && lsuSpace {
				bestMEM = ws
			}
		case warp.TEX:
			// Texture requests never surface as Xmem: an unissued ready
			// texture warp is indistinguishable from a waiting one.
			if bestTEX < 0 && texSpace {
				bestTEX = ws
			} else {
				snap.Waiting++
			}
		case warp.BAR:
			s.arriveBarrier(ws, now)
			snap.Others++
		case warp.EXIT:
			s.finishWarp(ws)
			snap.Active--
		}
	}

	s.finishIssue(now, smPeriod, snap, bestALU, bestMEM, bestTEX, readyALU, readyMEM)
}
