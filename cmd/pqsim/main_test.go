package main

import (
	"strings"
	"testing"
)

// TestRunRejectsOutOfRangeFlags: every out-of-range flag is an error naming
// it, before anything runs. -churn -0.5 used to build a smaller network than
// -n asked for (the negative join fraction shrank the stack, the area stayed
// sized for -n), -n 0 died in netstack, and a negative or NaN -speed ran a
// static network.
func TestRunRejectsOutOfRangeFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-n", "60", "-churn", "-0.5"}, "-churn"},
		{[]string{"-churn", "1.5"}, "-churn"},
		{[]string{"-n", "0"}, "-n"},
		{[]string{"-seeds", "-1"}, "-seeds"},
		{[]string{"-adv-size", "-1"}, "-adv-size"},
		{[]string{"-lookup-size", "-1"}, "-lookup-size"},
		{[]string{"-ttl", "-1"}, "-ttl"},
		{[]string{"-ads", "-1"}, "-ads"},
		{[]string{"-lookups", "-1"}, "-lookups"},
		{[]string{"-density", "-10"}, "-density"},
		{[]string{"-density", "Inf"}, "-density"},
		{[]string{"-speed", "-1"}, "-speed"},
		{[]string{"-speed", "NaN"}, "-speed"},
		{[]string{"-speed", "Inf"}, "-speed"},
	} {
		if err := run(tc.args); err == nil || !strings.HasPrefix(err.Error(), tc.flag+" must") {
			t.Errorf("pqsim %v: err = %v, want %s rejected", tc.args, err, tc.flag)
		}
	}
}
