package atm

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// budgetGo is the toolchain the compiler budgets below were taken on. Inline
// costs and the size up to which an array move stays inline are facts about
// one compiler release, so the test runs only on it.
const budgetGo = "go1.24.0"

// TestCompilerBudget holds the cell loops to what the compiler made of them
// on budgetGo:
//   - no CALL runtime.memmove on copyPayload's lines, on amd64, 386 and
//     arm64 (a [48]byte assignment or a constant-48 copy would be one; the
//     caps differ by GOARCH);
//   - the arguments of both assembly kernels, foldBlocks and moveFoldCells,
//     do not escape (without //go:noescape every payload they read would
//     move to the heap).
func TestCompilerBudget(t *testing.T) {
	goBin := budgetToolchain(t)
	cp := sourceLines(t, "cell.go", "func copyPayload(")
	insn := regexp.MustCompile(`\(.*[/\\]cell\.go:(\d+)\)\s+(\S+)\s*(\S*)`)
	for _, arch := range []string{"amd64", "386", "arm64"} {
		seen := 0
		for _, m := range insn.FindAllStringSubmatch(goBuild(t, goBin, arch, "-gcflags=-S"), -1) {
			line, _ := strconv.Atoi(m[1]) // \d+ always parses
			if line < cp.from || line > cp.to {
				continue
			}
			seen++
			if m[2] == "CALL" && m[3] == "runtime.memmove(SB)" {
				t.Errorf("GOARCH=%s: runtime.memmove called on copyPayload's line cell.go:%d", arch, line)
			}
		}
		if seen == 0 {
			t.Errorf("GOARCH=%s: no instruction of copyPayload (cell.go:%d-%d) in the listing", arch, cp.from, cp.to)
		}
	}

	out := goBuild(t, goBin, "amd64", "-gcflags=-m=2")
	for _, k := range []struct{ decl, params string }{
		{"func foldBlocks(", "p"},
		{"func moveFoldCells(", "dst src"},
	} {
		at := sourceLines(t, "crc_amd64.go", k.decl).from
		for _, p := range strings.Fields(k.params) {
			want := fmt.Sprintf("crc_amd64.go:%d:", at)
			if !regexp.MustCompile(regexp.QuoteMeta(want) + `\d+: ` + p + ` does not escape`).MatchString(out) {
				t.Errorf("%s: parameter %s escapes (no //go:noescape?)", strings.TrimSuffix(k.decl, "("), p)
			}
		}
	}
	cost := regexp.MustCompile(`can inline (copyPayload|crcMoveCells|foldCells) with cost (\d+)`)
	for _, m := range cost.FindAllStringSubmatch(out, -1) {
		t.Logf("%s: inline cost %s", m[1], m[2])
	}
}

// budgetToolchain returns the go command for TestCompilerBudget, or skips:
// under -short, without a go binary, or on another release than budgetGo.
func budgetToolchain(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("compiler budgets run the compiler; skipped under -short")
	}
	if v := runtime.Version(); v != budgetGo {
		t.Skipf("compiler budgets were taken on %s; this is %s", budgetGo, v)
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go binary: %v", err)
	}
	return goBin
}

// goBuild builds this package for GOARCH arch with the given flags and
// returns what the compiler printed.
func goBuild(t *testing.T, goBin, arch string, flags ...string) string {
	t.Helper()
	cmd := exec.Command(goBin, append(append([]string{"build"}, flags...), ".")...)
	cmd.Env = append(os.Environ(), "GOARCH="+arch, "GOOS=linux", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("GOARCH=%s go build %v: %v\n%s", arch, flags, err, out)
	}
	return string(out)
}

// lineSpan is a function's lines in its source file: its declaration
// through the closing brace in column 0.
type lineSpan struct{ from, to int }

// sourceLines finds the function whose declaration starts with decl in
// file.
func sourceLines(t *testing.T, file, decl string) lineSpan {
	t.Helper()
	f, err := os.Open(file)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var s lineSpan
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		switch line := sc.Text(); {
		case s.from == 0 && strings.HasPrefix(line, decl):
			s.from = n
			if !strings.HasSuffix(line, "{") {
				s.to = n // a declaration without a body
				return s
			}
		case s.from != 0 && line == "}":
			s.to = n
			return s
		}
	}
	t.Fatalf("%s: no %q", file, decl)
	return s
}
