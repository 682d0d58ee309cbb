package analysis

import (
	"path/filepath"
	"strings"
	"testing"
)

func loadTestPkg(t *testing.T, dir string) *Package {
	t.Helper()
	_, pkgs, err := Load(filepath.Join("testdata", "src", dir), ".")
	if err != nil {
		t.Fatal(err)
	}
	return pkgs[0]
}

// TestVerifyDirectives covers the three hygiene checks over the directives
// fixture: unknown verbs (a typo and the retired hotpath marker), an unknown
// analyzer name, and an allow that suppressed nothing, which reports only
// when its analyzer ran.
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

	diags := VerifyDirectives(pkg, known, map[string]bool{"errstrict": true})
	for _, want := range []string{
		`unknown eqlint directive "frobnicate"`,
		`unknown eqlint directive "hotpath"`,
		`unknown analyzer "nosuchanalyzer"`,
		"allow directive for errstrict suppressed nothing",
	} {
		if got := find(diags, want); got != 1 {
			t.Errorf("%d findings matching %q, want 1: %v", got, want, diags)
		}
	}

	// errstrict did not run: the unused check stays quiet.
	skipped := VerifyDirectives(pkg, known, map[string]bool{})
	if got := find(skipped, "suppressed nothing; remove it"); got != 0 {
		t.Errorf("without errstrict: %d unused findings, want 0: %v", got, skipped)
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
