package oracle_test

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"tmisa/internal/core"
	"tmisa/internal/mem"
	"tmisa/internal/oracle"
	"tmisa/internal/trace"
	"tmisa/internal/tracebin"
)

const (
	ax = mem.Addr(0x100)
	ay = mem.Addr(0x108)
	az = mem.Addr(0x110)
)

func rev(cpu int, k trace.Kind, a mem.Addr, v uint64) trace.Event {
	return trace.Event{CPU: cpu, Kind: k, Level: 1, Addr: a, Val: v}
}

// encode writes one run's events as a complete tracebin file.
func encode(t *testing.T, config string, events []trace.Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := tracebin.NewWriter(&buf, "replay-test")
	sink := w.StartRun("run", config, 64)
	for _, e := range events {
		sink(e)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// stream is encode, opened for reading.
func stream(t *testing.T, config string, events []trace.Event) *tracebin.Reader {
	t.Helper()
	r, err := tracebin.NewReader(bytes.NewReader(encode(t, config, events)))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestReplayCleanHistory: a serializable history streamed to disk
// replays clean, and the run's recorded config fingerprint surfaces for
// cross-checking.
func TestReplayCleanHistory(t *testing.T) {
	r := stream(t, "cpus=2 engine=lazy", []trace.Event{
		rev(0, trace.Begin, 0, 0),
		rev(0, trace.TxLoad, ax, 1),
		rev(0, trace.TxStore, ay, 2),
		rev(0, trace.Commit, 0, 0),
		rev(1, trace.Begin, 0, 0),
		rev(1, trace.TxLoad, ay, 2),
		rev(1, trace.TxStore, az, 3),
		rev(1, trace.Commit, 0, 0),
	})
	verdict, cfg, err := oracle.Replay(oracle.Config{Lazy: true, LineSize: 64}, r)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if cfg != "cpus=2 engine=lazy" {
		t.Fatalf("run config = %q", cfg)
	}
	if verdict != nil {
		t.Fatalf("clean history rejected offline: %v", verdict)
	}
}

// TestReplayReproducesViolation: the write-skew cycle — rejected by the
// live oracle — must be rejected identically when replayed from the
// stream. This is the offline post-mortem path the binary format exists
// for.
func TestReplayReproducesViolation(t *testing.T) {
	r := stream(t, "cfg", []trace.Event{
		rev(0, trace.NtLoad, ax, 1),
		rev(0, trace.NtLoad, ay, 2),
		rev(0, trace.Begin, 0, 0),
		rev(0, trace.TxLoad, ax, 1),
		rev(0, trace.TxStore, ay, 10),
		rev(1, trace.Begin, 0, 0),
		rev(1, trace.TxLoad, ay, 2),
		rev(1, trace.TxStore, ax, 20),
		rev(0, trace.Commit, 0, 0),
		rev(1, trace.Commit, 0, 0),
	})
	verdict, _, err := oracle.Replay(oracle.Config{Lazy: true, LineSize: 64}, r)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	oracle.PinVerdict(t, "write-skew-replayed", verdict)
	if !strings.Contains(verdict.Error(), "not conflict-serializable") {
		t.Fatalf("write-skew replayed verdict = %v, want a cycle report", verdict)
	}
}

// TestReplayRejectsOutOfRangeCPU: tracebin.Validate accepts any CPU
// number, so a corrupt stream can name a negative CPU or an absurd one.
// Replay must report such events as a violation, neither panicking on a
// negative index nor growing per-CPU state to the CPU's size.
func TestReplayRejectsOutOfRangeCPU(t *testing.T) {
	for _, cpu := range []int{-1, 1 << 16, 1 << 62} {
		data := encode(t, "cfg", []trace.Event{
			rev(cpu, trace.Begin, 0, 0),
			rev(cpu, trace.TxStore, ax, 1),
			rev(cpu, trace.Commit, 0, 0),
		})
		if _, _, err := tracebin.Validate(bytes.NewReader(data)); err != nil {
			t.Fatalf("cpu %d: stream does not validate: %v", cpu, err)
		}
		r, err := tracebin.NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		verdict, _, err := oracle.Replay(oracle.Config{Lazy: true, LineSize: 64}, r)
		if err != nil {
			t.Fatalf("cpu %d: replay: %v", cpu, err)
		}
		want := fmt.Sprintf("3 violation(s), first: @1: begin event names cpu %d, outside [0, 65536)", cpu)
		if verdict == nil || verdict.Error() != want {
			t.Fatalf("cpu %d: verdict\n got: %v\nwant: %s", cpu, verdict, want)
		}
	}
}

// TestReplayRejectsMultiRunStream: experiment streams interleave
// independent machines; replaying them as one history would be
// meaningless, so Replay refuses.
func TestReplayRejectsMultiRunStream(t *testing.T) {
	var buf bytes.Buffer
	w := tracebin.NewWriter(&buf, "multi")
	w.StartRun("a", "", 64)
	w.StartRun("b", "", 64)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r, err := tracebin.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = oracle.Replay(oracle.Config{}, r)
	oracle.PinVerdict(t, "replay-two-runs", err)

	// And an empty stream (header only) is an error, not a clean verdict.
	var empty bytes.Buffer
	if err := tracebin.WriteHeader(&empty, "empty"); err != nil {
		t.Fatal(err)
	}
	r2, err := tracebin.NewReader(bytes.NewReader(empty.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = oracle.Replay(oracle.Config{}, r2)
	oracle.PinVerdict(t, "replay-no-runs", err)
}

// TestReplayMachineStream is the end-to-end check: a real contended
// machine run streamed through the binary encoding must replay clean
// under the same oracle configuration the machine would have attached
// live.
func TestReplayMachineStream(t *testing.T) {
	cfg := core.DefaultConfig()
	cfg.CPUs = 2
	cfg.MaxCycles = 50_000_000

	var buf bytes.Buffer
	w := tracebin.NewWriter(&buf, "machine")
	m := core.NewMachine(cfg)
	m.SetTracer(w.StartRun("contend", cfg.Describe(), cfg.Cache.LineSize))
	line := m.AllocLine()
	worker := func(p *core.Proc) {
		for i := 0; i < 25; i++ {
			p.Atomic(func(tx *core.Tx) {
				p.Store(line, p.Load(line)+1)
				p.Tick(20)
			})
		}
	}
	m.Run(worker, worker)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r, err := tracebin.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	ocfg := oracle.Config{Lazy: cfg.Engine == core.Lazy, LineSize: cfg.Cache.LineSize, WordTracking: cfg.WordTracking}
	verdict, runCfg, err := oracle.Replay(ocfg, r)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if runCfg != cfg.Describe() {
		t.Fatalf("stream config %q, machine config %q", runCfg, cfg.Describe())
	}
	if verdict != nil {
		t.Fatalf("clean machine run rejected on replay: %v", verdict)
	}
	if r.Events() == 0 {
		t.Fatal("stream held no events; test is vacuous")
	}
}
