package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// chdirRepoRoot moves the test into the module root so ./... patterns
// resolve the way a CI invocation would.
func chdirRepoRoot(t *testing.T) {
	t.Helper()
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir("../..")
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

func TestList(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("run(-list) = %d, stderr %q", code, errb.String())
	}
	for _, name := range []string{"cycleaccounting", "errstrict", "nodeterminism", "probehygiene"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out.String())
		}
	}
}

func TestUnknownAnalyzer(t *testing.T) {
	var out, errb strings.Builder
	if code := run([]string{"-analyzers", "nosuch", "./internal/clock"}, &out, &errb); code != 2 {
		t.Fatalf("run(-analyzers nosuch) = %d, want 2", code)
	}
}

// TestCleanPackage runs the full analyzer set over a small simulator
// package that must be clean; exit status 0 is part of the repo's
// determinism contract.
func TestCleanPackage(t *testing.T) {
	chdirRepoRoot(t)
	var out, errb strings.Builder
	code := run([]string{"./internal/clock"}, &out, &errb)
	if code != 0 {
		t.Fatalf("run(./internal/clock) = %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
}

// TestDirtyPackage points eqlint at the probehygiene testdata fixtures,
// which are deliberately dirty (and in scope, since probehygiene applies
// everywhere), and expects findings with module-relative paths plus exit
// status 1.
func TestDirtyPackage(t *testing.T) {
	chdirRepoRoot(t)
	var out, errb strings.Builder
	code := run([]string{"-analyzers", "probehygiene",
		"./internal/analysis/testdata/src/probehygiene"}, &out, &errb)
	if code != 1 {
		t.Fatalf("run over dirty fixtures = %d, want 1\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "allocates") {
		t.Errorf("expected a probehygiene finding, got:\n%s", out.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		file, _, _ := strings.Cut(line, ":")
		if filepath.IsAbs(file) || !strings.HasPrefix(file, "internal/analysis/testdata/src/probehygiene/") {
			t.Errorf("finding path %q is not module-relative: %s", file, line)
		}
		if !strings.Contains(line, ": probehygiene: ") {
			t.Errorf("finding not from probehygiene: %s", line)
		}
	}
}

// TestStrictDirectives checks that directive hygiene is always on: the
// directives fixture carries an unknown verb, a retired verb, an unknown
// analyzer name and an unused allow, and every one is reported by default.
func TestStrictDirectives(t *testing.T) {
	chdirRepoRoot(t)
	var out, errb strings.Builder
	if code := run([]string{"./internal/analysis/testdata/src/directives"}, &out, &errb); code != 1 {
		t.Fatalf("run = %d, want 1\nstdout:\n%s\nstderr:\n%s", code, out.String(), errb.String())
	}
	for _, want := range []string{
		`unknown eqlint directive "frobnicate"`,
		`unknown eqlint directive "hotpath"`,
		`unknown analyzer "nosuchanalyzer"`,
		"allow directive for errstrict suppressed nothing",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q finding:\n%s", want, out.String())
		}
	}
}
