package warp

import (
	"testing"
	"testing/quick"
)

func simpleProfile() *Profile {
	return &Profile{
		LineBytes: 128,
		Phases: []Phase{
			{Insts: 8, MemEvery: 4, ALUGap: 2, Pattern: Streaming},
		},
	}
}

func TestValidate(t *testing.T) {
	if err := simpleProfile().Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}
	bad := []Profile{
		{LineBytes: 128},
		{LineBytes: 100, Phases: []Phase{{Insts: 1}}},
		{LineBytes: 128, Phases: []Phase{{Insts: 0}}},
		{LineBytes: 128, Phases: []Phase{{Insts: 1, MemEvery: -1}}},
		{LineBytes: 128, Phases: []Phase{{Insts: 1, Pattern: PrivateReuse}}},
		{LineBytes: 128, Phases: []Phase{{Insts: 1, Pattern: SharedReadOnly}}},
		{LineBytes: 128, Phases: []Phase{{Insts: 1, ExtraLines: -2}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid profile accepted", i)
		}
	}
}

func TestStreamEmitsMixAndExit(t *testing.T) {
	s := NewStream(simpleProfile(), 0)
	var kinds []Kind
	for !s.Done() {
		in := s.Next()
		kinds = append(kinds, in.Kind)
		if len(kinds) > 20 {
			t.Fatal("stream did not terminate")
		}
	}
	// 8 instructions: mem at local positions 3 and 7, then EXIT.
	want := []Kind{ALU, ALU, ALU, MEM, ALU, ALU, ALU, MEM, EXIT}
	if len(kinds) != len(want) {
		t.Fatalf("stream length = %d, want %d (%v)", len(kinds), len(want), kinds)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("inst %d = %v, want %v (%v)", i, kinds[i], want[i], kinds)
		}
	}
}

func TestExitIsSticky(t *testing.T) {
	p := &Profile{LineBytes: 128, Phases: []Phase{{Insts: 1, ALUGap: 1}}}
	s := NewStream(p, 0)
	s.Next()
	for i := 0; i < 3; i++ {
		if in := s.Next(); in.Kind != EXIT {
			t.Fatalf("post-exit Next = %v, want EXIT", in.Kind)
		}
	}
	if !s.Done() {
		t.Fatal("Done false after EXIT")
	}
}

func TestStreamingAddressesAreFreshLines(t *testing.T) {
	p := simpleProfile()
	seen := map[uint64]bool{}
	for id := 0; id < 4; id++ {
		s := NewStream(p, id)
		for !s.Done() {
			in := s.Next()
			if in.Kind != MEM {
				continue
			}
			la := uint64(in.Addr) &^ 127
			if seen[la] {
				t.Fatalf("streaming address %#x repeated", la)
			}
			seen[la] = true
		}
	}
	if len(seen) != 8 {
		t.Fatalf("unique lines = %d, want 8 (2 per warp × 4 warps)", len(seen))
	}
}

func TestPrivateReuseCycles(t *testing.T) {
	p := &Profile{
		LineBytes: 128,
		Phases:    []Phase{{Insts: 12, MemEvery: 1, Pattern: PrivateReuse, WorkingSetLines: 4}},
	}
	s := NewStream(p, 3)
	var addrs []uint64
	for !s.Done() {
		in := s.Next()
		if in.Kind == MEM {
			addrs = append(addrs, uint64(in.Addr))
		}
	}
	if len(addrs) != 12 {
		t.Fatalf("mem ops = %d, want 12", len(addrs))
	}
	for i := 4; i < len(addrs); i++ {
		if addrs[i] != addrs[i-4] {
			t.Fatalf("working set did not cycle: addr[%d]=%#x addr[%d]=%#x", i, addrs[i], i-4, addrs[i-4])
		}
	}
	// Distinct warps use disjoint regions.
	s2 := NewStream(p, 4)
	in := s2.Next()
	for in.Kind != MEM {
		in = s2.Next()
	}
	for _, a := range addrs {
		if a == uint64(in.Addr) {
			t.Fatal("private regions of two warps overlap")
		}
	}
}

func TestSharedReadOnlyStaysInRegion(t *testing.T) {
	p := &Profile{
		LineBytes: 128,
		Phases:    []Phase{{Insts: 64, MemEvery: 1, Pattern: SharedReadOnly, SharedLines: 16}},
	}
	base := uint64(sharedBase)
	for id := 0; id < 5; id++ {
		s := NewStream(p, id)
		for !s.Done() {
			in := s.Next()
			if in.Kind != MEM {
				continue
			}
			off := uint64(in.Addr) - base
			if off >= 16*128 {
				t.Fatalf("shared access %#x outside region", uint64(in.Addr))
			}
		}
	}
}

func TestBarrierIsLastInstructionOfPhase(t *testing.T) {
	p := &Profile{
		LineBytes: 128,
		Phases: []Phase{
			{Insts: 3, ALUGap: 1, Barrier: true},
			{Insts: 2, ALUGap: 1},
		},
	}
	s := NewStream(p, 0)
	var kinds []Kind
	for !s.Done() {
		kinds = append(kinds, s.Next().Kind)
	}
	want := []Kind{ALU, ALU, BAR, ALU, ALU, EXIT}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("inst %d = %v, want %v (%v)", i, kinds[i], want[i], kinds)
		}
	}
}

func TestPhaseTransitionsAndPhaseIndex(t *testing.T) {
	p := &Profile{
		LineBytes: 128,
		Phases: []Phase{
			{Insts: 2, ALUGap: 1},
			{Insts: 2, MemEvery: 1, Pattern: Streaming},
		},
	}
	s := NewStream(p, 0)
	if s.Phase() != 0 {
		t.Fatal("initial phase != 0")
	}
	s.Next()
	s.Next()
	if s.Phase() != 1 {
		t.Fatalf("phase after 2 insts = %d, want 1", s.Phase())
	}
	if in := s.Next(); in.Kind != MEM {
		t.Fatalf("first phase-1 inst = %v, want MEM", in.Kind)
	}
	if totalInsts(p) != 4 {
		t.Fatalf("totalInsts = %d, want 4", totalInsts(p))
	}
}

func TestSFUInterleave(t *testing.T) {
	p := &Profile{
		LineBytes: 128,
		Phases:    []Phase{{Insts: 6, SFUEvery: 3, SFUGap: 20, ALUGap: 2}},
	}
	s := NewStream(p, 0)
	var kinds []Kind
	for !s.Done() {
		kinds = append(kinds, s.Next().Kind)
	}
	want := []Kind{ALU, ALU, SFU, ALU, ALU, SFU, EXIT}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("inst %d = %v, want %v (%v)", i, kinds[i], want[i], kinds)
		}
	}
	if kinds[2] == SFU {
		in := NewStream(p, 0)
		in.Next()
		in.Next()
		if g := in.Next().Gap; g != 20 {
			t.Fatalf("SFU gap = %d, want 20", g)
		}
	}
}

func TestExtraAddrAdjacentLines(t *testing.T) {
	base := ExtraAddr(0x1000, 0, 128)
	a1 := ExtraAddr(0x1000, 1, 128)
	a2 := ExtraAddr(0x1000, 2, 128)
	if base != 0x1000 {
		t.Fatalf("k=0 must return base, got %#x", uint64(base))
	}
	if a1 != base+128 || a2 != base+256 {
		t.Fatalf("extra lines must be adjacent: %#x %#x", uint64(a1), uint64(a2))
	}
}

// Property: streams are deterministic — two streams with the same profile and
// id produce identical sequences.
func TestQuickDeterminism(t *testing.T) {
	f := func(id uint8, wsl uint8) bool {
		ws := int(wsl%16) + 1
		p := &Profile{
			LineBytes: 128,
			Phases: []Phase{
				{Insts: 32, MemEvery: 3, ALUGap: 2, Pattern: PrivateReuse, WorkingSetLines: ws},
			},
		}
		a, b := NewStream(p, int(id)), NewStream(p, int(id))
		for !a.Done() {
			x, y := a.Next(), b.Next()
			if x != y {
				return false
			}
		}
		return b.Done()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// totalInsts returns the per-warp instruction count (excluding EXIT).
func totalInsts(p *Profile) int {
	n := 0
	for _, ph := range p.Phases {
		n += ph.Insts
	}
	return n
}

// Property: every stream terminates after exactly totalInsts(p)+1 calls.
func TestQuickTermination(t *testing.T) {
	f := func(n1, n2 uint8) bool {
		p := &Profile{
			LineBytes: 128,
			Phases: []Phase{
				{Insts: int(n1%32) + 1, ALUGap: 1},
				{Insts: int(n2%32) + 1, MemEvery: 2, Pattern: Streaming},
			},
		}
		s := NewStream(p, 1)
		count := 0
		for !s.Done() {
			s.Next()
			count++
		}
		return count == totalInsts(p)+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKindAndPatternStrings(t *testing.T) {
	if ALU.String() != "alu" || MEM.String() != "mem" || BAR.String() != "bar" {
		t.Fatal("kind strings wrong")
	}
	if Streaming.String() != "streaming" || PrivateReuse.String() != "private-reuse" {
		t.Fatal("pattern strings wrong")
	}
}
