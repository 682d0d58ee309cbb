package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func loadTestPkg(t *testing.T, dir string) *Package {
	t.Helper()
	path := filepath.Join("testdata", "src", dir)
	loader, err := NewLoader(path)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.LoadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	return pkg
}

// TestVerifyDirectives covers the three hygiene checks over the directives
// fixture: unknown verb and unknown analyzer name always report; an unused
// allow reports only under strict, and only when its analyzer ran.
func TestVerifyDirectives(t *testing.T) {
	pkg := loadTestPkg(t, "directives")
	known := AllNames()

	find := func(diags []Diagnostic, substr string) int {
		n := 0
		for _, d := range diags {
			if strings.Contains(d.Message, substr) {
				n++
			}
		}
		return n
	}

	lax := VerifyDirectives(pkg, known, map[string]bool{"errstrict": true}, false)
	if got := find(lax, `unknown eqlint directive "frobnicate"`); got != 1 {
		t.Errorf("lax: %d unknown-verb findings, want 1: %v", got, lax)
	}
	if got := find(lax, `unknown analyzer "nosuchanalyzer"`); got != 1 {
		t.Errorf("lax: %d unknown-name findings, want 1: %v", got, lax)
	}
	if got := find(lax, "suppressed nothing; remove it"); got != 0 {
		t.Errorf("lax: %d unused findings, want 0: %v", got, lax)
	}

	strict := VerifyDirectives(pkg, known, map[string]bool{"errstrict": true}, true)
	if got := find(strict, "allow directive for errstrict suppressed nothing"); got != 1 {
		t.Errorf("strict: %d unused findings, want 1: %v", got, strict)
	}

	// strict, but errstrict did not run: the unused check stays quiet.
	strictSkipped := VerifyDirectives(pkg, known, map[string]bool{}, true)
	if got := find(strictSkipped, "suppressed nothing; remove it"); got != 0 {
		t.Errorf("strict without errstrict: %d unused findings, want 0: %v", got, strictSkipped)
	}
}

// FuzzAllowDirective hammers the suppression-comment parser with arbitrary
// comment text: it must never panic, only //eqlint:allow forms may set
// eqlint=true, and parsed names never contain separator characters.
func FuzzAllowDirective(f *testing.F) {
	seeds := []string{
		"//eqlint:allow nodeterminism -- reason",
		"//eqlint:allow errstrict,probehygiene -- two names",
		"//eqlint:allow",
		"//eqlint:allow -- bare with reason",
		"//eqlint:allowfoo not an allow",
		"//eqlint:hotpath",
		"//nolint:errcheck",
		"//nolint:errcheck // trailing",
		"//nolint:gosec,errcheck",
		"// plain comment",
		"//eqlint:allow \t mixed,separators\there",
		"//eqlint:allow a--b",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, text string) {
		names, eqlint := parseAllowDirective(text)
		if names == nil {
			if eqlint {
				t.Fatalf("parseAllowDirective(%q): eqlint=true with nil names", text)
			}
			return
		}
		if len(names) == 0 {
			t.Fatalf("parseAllowDirective(%q): empty non-nil names", text)
		}
		if eqlint && !strings.HasPrefix(text, "//eqlint:allow") {
			t.Fatalf("parseAllowDirective(%q): eqlint=true for non-allow text", text)
		}
		if !eqlint && !strings.HasPrefix(text, "//nolint:") {
			t.Fatalf("parseAllowDirective(%q): parsed names from non-directive text", text)
		}
		for _, n := range names {
			if n == "" || strings.ContainsAny(n, ", \t") {
				t.Fatalf("parseAllowDirective(%q): bad name %q", text, n)
			}
		}
	})
}
