package tmfuzz

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"tmisa/internal/core"
)

// TestDeriveCaseDeterministic: the generator's whole contract is that
// (seed, index) pins the case — program and machine configuration — so
// reproducers replay bit-for-bit.
func TestDeriveCaseDeterministic(t *testing.T) {
	for i := 0; i < 16; i++ {
		p1, mc1 := DeriveCase(99, i)
		p2, mc2 := DeriveCase(99, i)
		if !reflect.DeepEqual(p1, p2) {
			t.Fatalf("case %d: programs differ across derivations", i)
		}
		if !reflect.DeepEqual(mc1, mc2) {
			t.Fatalf("case %d: configs differ across derivations", i)
		}
		if err := p1.Validate(); err != nil {
			t.Fatalf("case %d: generated program invalid: %v", i, err)
		}
	}
}

// TestCoreConfigRunsNamedKinds: every generated case runs the engine,
// cache scheme, fallback and memory model its config names. Before, a
// "multitrack" case silently ran the default associativity scheme.
func TestCoreConfigRunsNamedKinds(t *testing.T) {
	seen := map[string]bool{}
	for i := 0; i < 400; i++ {
		_, mc := DeriveCase(1, i)
		cfg := mc.CoreConfig()
		fb, mm := mc.Fallback, mc.MemModel
		if fb == "" {
			fb = "none"
		}
		if mm == "" {
			mm = "sc"
		}
		got := [4]string{cfg.Engine.String(), cfg.Cache.Scheme.String(), cfg.Fallback.String(), cfg.MemModel.String()}
		if want := [4]string{mc.Engine, mc.Scheme, fb, mm}; got != want {
			t.Fatalf("case %d: config names %v but runs %v", i, want, got)
		}
		seen[mc.Scheme] = true
	}
	if !seen["multitrack"] || !seen["associativity"] {
		t.Fatalf("400 cases did not cover both schemes: %v", seen)
	}
}

// TestSmokeRunClean is the bounded in-tree fuzz smoke: two full matrix
// sweeps of seed 1 must execute with zero failures. Any failure here is a
// real engine or oracle bug (or a generator regression) — the log carries
// the shrunk litmus.
func TestSmokeRunClean(t *testing.T) {
	var buf bytes.Buffer
	res, err := Run(Options{Seed: 1, N: 16, Out: &buf})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if res.Cases != 16 {
		t.Fatalf("ran %d cases, want 16", res.Cases)
	}
	if len(res.Failures) != 0 {
		t.Fatalf("smoke run found %d failure(s):\n%s", len(res.Failures), buf.String())
	}
}

// TestRunOutputDeterministic: with no Duration bound, two identical runs
// must produce byte-identical logs — the property CI's smoke job diffs.
func TestRunOutputDeterministic(t *testing.T) {
	run := func() []byte {
		var buf bytes.Buffer
		if _, err := Run(Options{Seed: 7, N: 16, Verbose: true, Out: &buf}); err != nil {
			t.Fatalf("run failed: %v", err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("two identical runs diverged:\n--- first\n%s\n--- second\n%s", a, b)
	}
}

// TestBugCompatFindsAndShrinksLostUpdate is the end-to-end acceptance
// check: re-enabling the pre-PR-1 non-transactional-store behaviour must
// make the fuzzer find the lost update within the smoke budget, shrink it
// to a small litmus, and emit a reproducer that replays red under the bug
// and green at head.
func TestBugCompatFindsAndShrinksLostUpdate(t *testing.T) {
	core.BugCompatNonTxStore = true
	defer func() { core.BugCompatNonTxStore = false }()

	dir := t.TempDir()
	var buf bytes.Buffer
	res, err := Run(Options{Seed: 1, N: 32, CorpusDir: dir, MaxFailures: 1, Out: &buf})
	if err != nil {
		t.Fatalf("run failed: %v", err)
	}
	if len(res.Failures) == 0 {
		t.Fatalf("fuzzer missed the re-enabled lost update in %d cases:\n%s", res.Cases, buf.String())
	}
	r := res.Failures[0]
	if r.Category != CatOracle {
		t.Errorf("failure category %q, want %q", r.Category, CatOracle)
	}
	if n := r.Program.NumOps(); n > 15 {
		t.Errorf("shrinker left %d ops; the lost update reduces to a handful", n)
	}
	if !strings.Contains(r.Litmus, "p.Store(") {
		t.Errorf("litmus listing lacks the stores:\n%s", r.Litmus)
	}

	// The written reproducer round-trips and replays red while the bug is
	// still enabled...
	files, _ := filepath.Glob(filepath.Join(dir, "repro-*.json"))
	if len(files) != 1 {
		t.Fatalf("corpus dir holds %d reproducers, want 1", len(files))
	}
	loaded, err := LoadRepro(r.JSON())
	if err != nil {
		t.Fatalf("reproducer does not load back: %v", err)
	}
	if red := Replay(loaded); !red.Failed() {
		t.Error("reproducer replays clean while the bug is enabled")
	}
	// ...and green once the fix is back in force.
	core.BugCompatNonTxStore = false
	if green := Replay(loaded); green.Failed() {
		t.Errorf("reproducer still fails at head: %v", green.Err)
	}
}

// TestReproJSONRoundTrip: the reproducer format preserves the program and
// configuration exactly, including the fault plan.
func TestReproJSONRoundTrip(t *testing.T) {
	prog, mc := DeriveCase(5, 3)
	r := &Repro{
		Seed: 5, Case: 3, Category: CatInvariant,
		Config: mc, Program: prog,
		Failure: "synthetic", Litmus: prog.RenderGo(),
	}
	loaded, err := LoadRepro(r.JSON())
	if err != nil {
		t.Fatalf("round trip failed: %v", err)
	}
	if !reflect.DeepEqual(loaded.Program, prog) {
		t.Error("program did not survive the round trip")
	}
	if !reflect.DeepEqual(loaded.Config, mc) {
		t.Error("config did not survive the round trip")
	}
	if loaded.Seed != 5 || loaded.Case != 3 || loaded.Category != CatInvariant {
		t.Errorf("metadata mangled: %+v", loaded)
	}
}

// TestLoadReproRejectsBadInput: corrupt or structurally invalid
// reproducers are refused, not executed.
func TestLoadReproRejectsBadInput(t *testing.T) {
	cases := map[string]string{
		"garbage":     "{not json",
		"no program":  `{"seed":1,"case":0,"config":{"cpus":2}}`,
		"bad word":    `{"seed":1,"config":{"cpus":1},"program":{"words":2,"threads":[[{"k":"load","id":1,"w":9}]]}}`,
		"cpu deficit": `{"seed":1,"config":{"cpus":1},"program":{"words":2,"threads":[[],[]]}}`,
	}
	// Names CoreConfig does not know: before, an unknown memModel
	// panicked and the other three silently ran a default.
	prog := `,"program":{"words":1,"threads":[[]]}}`
	cases["unknown engine"] = `{"seed":1,"config":{"cpus":1,"engine":"lazzy","scheme":"multitrack"}` + prog
	cases["unknown scheme"] = `{"seed":1,"config":{"cpus":1,"engine":"lazy","scheme":"multi-track"}` + prog
	cases["unknown fallback"] = `{"seed":1,"config":{"cpus":1,"engine":"lazy","scheme":"multitrack","fallback":"stm"}` + prog
	cases["unknown memModel"] = `{"seed":1,"config":{"cpus":1,"engine":"lazy","scheme":"multitrack","memModel":"pso"}` + prog
	good := `{"seed":1,"config":{"cpus":1,"engine":"eager","scheme":"associativity","fallback":"tl2","memModel":"relaxed"}` + prog
	if _, err := LoadRepro([]byte(good)); err != nil {
		t.Fatalf("valid names rejected: %v", err)
	}
	for name, data := range cases {
		if _, err := LoadRepro([]byte(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestRunRequiresBound: an unbounded run is an operational error.
func TestRunRequiresBound(t *testing.T) {
	if _, err := Run(Options{Seed: 1}); err == nil {
		t.Fatal("unbounded run accepted")
	}
}

// TestProgramJSONStable: the program's JSON form is deterministic (it is
// diffed in corpus reviews).
func TestProgramJSONStable(t *testing.T) {
	prog, _ := DeriveCase(11, 2)
	a, b := prog.MarshalIndentJSON(), prog.MarshalIndentJSON()
	if !bytes.Equal(a, b) {
		t.Fatal("program JSON not stable")
	}
	var back Program
	if err := json.Unmarshal(a, &back); err != nil {
		t.Fatalf("program JSON does not parse: %v", err)
	}
	if !reflect.DeepEqual(&back, prog) {
		t.Fatal("program JSON round trip lost information")
	}
}

// FuzzTM is the native fuzz entry point: the input is a (seed, index)
// coordinate in the generator's space, so go test -fuzz explores exactly
// the same case universe as cmd/tmfuzz and every crasher is replayable
// with `go run ./cmd/tmfuzz -seed S` or by re-running the test.
//
// The f.Add seeds are the regression corpus: every coordinate below
// exposed a real engine or oracle bug during development (lazy
// non-transactional-store lost update in a validated commit window,
// missing lazy stall wakeups, open-nesting imst undo patching, WBuf-based
// committed-value reads, two livelock shapes) or is the PR 1 lost-update
// shape (seed 1 case 14, red only under core.BugCompatNonTxStore). Under
// plain `go test` (-fuzz off) the corpus replays as ordinary test cases.
func FuzzTM(f *testing.F) {
	f.Add(uint64(1), 14)  // PR 1 non-tx-store lost update (bug-compat shape)
	f.Add(uint64(1), 37)  // open-nesting anti-dependency exemption (oracle)
	f.Add(uint64(1), 44)  // eager backoff livelock
	f.Add(uint64(1), 115) // lazy nt-store vs validated commit window
	f.Add(uint64(1), 421) // imst undo patching at open commit (oracle)
	f.Add(uint64(3), 112) // lazy open-nesting livelock without backoff
	f.Add(uint64(4), 145) // committed-value read from WBuf missed imst words
	f.Add(uint64(15), 24) // lazy open-commit kill orbit (exponential backoff)
	f.Fuzz(func(t *testing.T, seed uint64, idx int) {
		if idx < 0 {
			idx = -(idx + 1)
		}
		idx %= 1 << 20 // keep the coordinate in the space cmd/tmfuzz sweeps
		prog, mc := DeriveCase(seed, idx)
		if err := prog.Validate(); err != nil {
			t.Fatalf("generator produced an invalid program: %v", err)
		}
		if r := Execute(prog, mc); r.Failed() {
			t.Fatalf("seed %d case %d (%s) failed (%s): %v\nreplay: go run ./cmd/tmfuzz -seed %d -n %d\n%s",
				seed, idx, mc, r.Category, r.Err, seed, idx+1, prog.RenderGo())
		}
	})
}
