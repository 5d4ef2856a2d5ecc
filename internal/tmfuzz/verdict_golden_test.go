package tmfuzz

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tmisa/internal/core"
)

var updateVerdicts = flag.Bool("update-verdicts", false, "rewrite testdata/bugcompat_verdicts.golden from the current oracle")

// TestBugCompatVerdictsGolden pins the oracle's complete failure text,
// byte for byte, on every oracle failure a fixed-seed sweep finds with the
// pre-fix non-transactional store re-enabled. The other oracle tests match
// substrings; this one catches any drift in which violation is reported
// first, how entities are labelled, or which cycle a report walks.
// Only the checker's own verdict is compared: the machine's appended
// config and event history are cut off.
func TestBugCompatVerdictsGolden(t *testing.T) {
	const seed, cases = 1, 3000
	core.BugCompatNonTxStore = true
	defer func() { core.BugCompatNonTxStore = false }()

	var b strings.Builder
	for i := 0; i < cases; i++ {
		prog, mc := DeriveCase(seed, i)
		r := Execute(prog, mc)
		if r.Category != CatOracle {
			continue
		}
		verdict, _, _ := strings.Cut(r.Err.Error(), "\n--- config: ")
		fmt.Fprintf(&b, "seed %d case %d (%s): %s\n", seed, i, mc, verdict)
	}
	got := b.String()

	path := filepath.Join("testdata", "bugcompat_verdicts.golden")
	if *updateVerdicts {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-verdicts)", err)
	}
	if got != string(want) {
		t.Fatalf("oracle verdicts drifted from %s:\n--- got\n%s--- want\n%s", path, got, want)
	}
}
