package main

import (
	"strings"
	"testing"
)

// TestRejectsBadFlags: a rate or percentage the load generator cannot
// honour is an error before any key is loaded, not a silent clamp.
func TestRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-rate", "0"}, "rate"},
		{[]string{"-rate", "-100"}, "rate"},
		{[]string{"-rate", "NaN"}, "rate"},
		{[]string{"-rate", "+Inf"}, "rate"},
		{[]string{"-rate", "2e9"}, "rate"},
		{[]string{"-read", "-1"}, "read percent"},
		{[]string{"-read", "101"}, "read percent"},
		{[]string{"-scan", "-1"}, "scan percent"},
		{[]string{"-scan", "101"}, "scan percent"},
		{[]string{"-multi", "-1"}, "multi percent"},
		{[]string{"-multi", "101"}, "multi percent"},
		{[]string{"-scan", "60", "-multi", "50"}, "exceeds 100"},
	} {
		err := run(append(tc.args, "-quiet"))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%q) = %v, want an error naming %q", tc.args, err, tc.want)
		}
	}
}
