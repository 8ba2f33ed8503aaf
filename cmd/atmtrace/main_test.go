package main

import (
	"strings"
	"testing"
)

// TestRun runs the command on each row's arguments and checks the verdict
// line and the number of cells dumped. A row with no verdict must fail: a
// -corrupt index past the frame's last cell is an error, not a run that
// corrupts nothing.
func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		args  []string
		cells int
		want  string
	}{
		{"default", nil, 3, "reassembly: OK, 96 bytes recovered, payload intact=true"},
		{"corrupt", []string{"-size", "200", "-corrupt", "3"}, 5, "reassembly: REJECTED (atm: AAL5 CRC-32 mismatch)"},
		{"text 40", []string{"-text", strings.Repeat("x", 40)}, 1, "reassembly: OK, 40 bytes recovered, payload intact=true"},
		{"text 41", []string{"-text", strings.Repeat("x", 41)}, 2, "reassembly: OK, 41 bytes recovered, payload intact=true"},
		{"corrupt past the frame", []string{"-corrupt", "3"}, 0, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out strings.Builder
			err := run(tc.args, &out)
			if tc.want == "" {
				if err == nil {
					t.Fatalf("ran:\n%s", out.String())
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(out.String(), tc.want) {
				t.Fatalf("output lacks %q:\n%s", tc.want, out.String())
			}
			if n := strings.Count(out.String(), "\ncell "); n != tc.cells {
				t.Fatalf("%d cells printed, want %d:\n%s", n, tc.cells, out.String())
			}
		})
	}
}
