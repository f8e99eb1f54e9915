package netstack

import (
	"fmt"
	"strings"
	"testing"
)

// FuzzParseStack: ParseStack never panics, accepts a name exactly when it is
// one of the two kinds' String() up to case, returns that kind — so a
// kind's String() parses back to it — and rejects everything else with an
// error that quotes the input.
func FuzzParseStack(f *testing.F) {
	for _, s := range []string{"", "SINR", "disk", "Ideal", "\x00"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, name string) {
		var want StackKind
		for _, k := range []StackKind{StackSINR, StackIdeal} {
			if strings.EqualFold(name, k.String()) {
				want = k
			}
		}
		k, err := ParseStack(name)
		switch {
		case want != 0 && (err != nil || k != want):
			t.Fatalf("ParseStack(%q) = %v, %v; want %v", name, k, err, want)
		case want != 0:
			if back, err := ParseStack(k.String()); err != nil || back != k {
				t.Fatalf("ParseStack(%q) = %v, %v: String does not round-trip", k.String(), back, err)
			}
		case err == nil:
			t.Fatalf("ParseStack(%q) = %v, want an error", name, k)
		case !strings.Contains(err.Error(), fmt.Sprintf("%q", name)):
			t.Fatalf("ParseStack(%q): error %q does not quote the input", name, err)
		}
	})
}
