package gpu

import (
	"reflect"
	"slices"
	"testing"
)

// The census tests keep the names they had when a passive Monitor policy
// sampled the census; each asserts the same property on Result.Census.

func TestMonitorDistributionComputeKernel(t *testing.T) {
	res, err := newMachine(t).RunKernel(smallKernel(t, "cutcp", 30), 0)
	if err != nil {
		t.Fatal(err)
	}
	w, i, xa, xm := res.Census.Distribution()
	sum := w + i + xa + xm
	if sum < 0.99 || sum > 1.01 {
		t.Fatalf("distribution sums to %g, want 1", sum)
	}
	if xa < 0.3 {
		t.Fatalf("compute kernel excess-ALU fraction = %.2f, want dominant", xa)
	}
	if xa <= xm {
		t.Fatalf("compute kernel has XALU %.2f <= XMEM %.2f", xa, xm)
	}
}

func TestMonitorDistributionMemoryKernel(t *testing.T) {
	res, err := newMachine(t).RunKernel(smallKernel(t, "lbm", 105), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, _, xa, xm := res.Census.Distribution()
	if xm <= xa {
		t.Fatalf("memory kernel has XMEM %.2f <= XALU %.2f", xm, xa)
	}
	if xm < 0.1 {
		t.Fatalf("memory kernel XMEM fraction = %.2f, want significant", xm)
	}
}

func TestMonitorSeriesTracksEpochs(t *testing.T) {
	res, err := newMachine(t).RunKernel(smallKernel(t, "cutcp", 60), 0)
	if err != nil {
		t.Fatal(err)
	}
	series := res.Census.Series
	if len(series) < 2 {
		t.Fatalf("series has %d epochs, want several", len(series))
	}
	if want := int(res.SMCycles / censusEpoch); len(series) != want {
		t.Fatalf("series has %d epochs over %d cycles, want %d complete epochs", len(series), res.SMCycles, want)
	}
	for i, p := range series {
		if p.Epoch != i+1 {
			t.Fatalf("epoch numbering broken at %d: %d", i, p.Epoch)
		}
		if p.Active < 0 || p.Active > 48 {
			t.Fatalf("active out of range: %g", p.Active)
		}
	}
}

// TestMonitorResetClears: a second RunKernel on the same machine holds only
// its own samples, its epochs restart at 1, and the first result's series
// is not overwritten by the machine's reused buffer.
func TestMonitorResetClears(t *testing.T) {
	m := newMachine(t)
	first, err := m.RunKernel(smallKernel(t, "cutcp", 60), 0)
	if err != nil {
		t.Fatal(err)
	}
	kept := slices.Clone(first.Census.Series)
	second, err := m.RunKernel(smallKernel(t, "cutcp", 30), 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := newMachine(t).RunKernel(smallKernel(t, "cutcp", 30), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(second.Census, fresh.Census) {
		t.Fatalf("second run's census %+v, want a fresh machine's %+v", second.Census, fresh.Census)
	}
	if len(second.Census.Series) == 0 || second.Census.Series[0].Epoch != 1 {
		t.Fatalf("second run's epochs do not restart at 1: %+v", second.Census.Series)
	}
	if !reflect.DeepEqual(first.Census.Series, kept) {
		t.Fatal("the first result's series changed under the second run")
	}
}
