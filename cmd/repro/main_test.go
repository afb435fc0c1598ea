//go:build !race

// The race detector slows a full run from about two seconds to over ten
// on two vCPUs, and the packages it drives run their own tests under it,
// so this pin runs without it: scripts/check.sh gives it its own line.

package main

import (
	"bytes"
	"os"
	"strings"
	"testing"
)

// untimed drops the "[id completed in …]" lines, the only output that
// varies between runs of one seed.
func untimed(out string) []string {
	var keep []string
	for _, line := range strings.Split(out, "\n") {
		if !(strings.HasPrefix(line, "[") && strings.Contains(line, " completed in ")) {
			keep = append(keep, line)
		}
	}
	return keep
}

// TestReproMatchesReference pins every table and figure: a run at the
// default seed must print the checked-in reference, line for line.
func TestReproMatchesReference(t *testing.T) {
	ref, err := os.ReadFile("../../repro_output.txt")
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	reproduce(&b, 42, "", "")
	want, got := untimed(string(ref)), untimed(b.String())
	i := 0
	for i < min(len(want), len(got)) && want[i] == got[i] {
		i++
	}
	if i == len(want) && i == len(got) {
		return
	}
	at := func(lines []string) string {
		if i < len(lines) {
			return lines[i]
		}
		return "(end of output)"
	}
	t.Fatalf("output differs from repro_output.txt at untimed line %d:\n got: %q\nwant: %q\n"+
		"if the change is intended, regenerate with: go run ./cmd/repro > repro_output.txt",
		i+1, at(got), at(want))
}
