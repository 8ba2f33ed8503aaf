package core

import (
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"testing"
)

// budgetGo is the toolchain the compiler budget below was taken on: inline
// costs move between compiler releases, so the test runs only on it.
const budgetGo = "go1.24.0"

// TestCompilerBudget holds the receive hot path under the inliner's budget
// on budgetGo, built for amd64: (*Thread).RecvInto and (*Proc).stored must
// stay inlinable. Crossing the budget once cost a few percent on
// pingpong_mem that no in-package benchmark resolved. The costs are logged,
// not pinned.
func TestCompilerBudget(t *testing.T) {
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
	cmd := exec.Command(goBin, "build", "-gcflags=-m=2", ".")
	cmd.Env = append(os.Environ(), "GOARCH=amd64", "GOOS=linux", "CGO_ENABLED=0")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go build -gcflags=-m=2: %v\n%s", err, out)
	}
	for _, fn := range []string{"(*Thread).RecvInto", "(*Proc).stored"} {
		m := regexp.MustCompile(`can inline ` + regexp.QuoteMeta(fn) + ` with cost (\d+)`).FindSubmatch(out)
		if m == nil {
			t.Errorf("%s no longer inlines: %s", fn, regexp.MustCompile(`cannot inline `+regexp.QuoteMeta(fn)+`: [^\n]*`).Find(out))
			continue
		}
		t.Logf("%s: inline cost %s", fn, m[1])
	}
}
