package tmfuzz

import (
	"encoding/json"
	"fmt"

	"tmisa/internal/cache"
	"tmisa/internal/core"
)

// MachineConfig is the serializable machine description of one fuzz case:
// everything core.Config needs, in a JSON-stable form, so a reproducer
// replays on the exact configuration that failed.
type MachineConfig struct {
	CPUs         int    `json:"cpus"`
	Engine       string `json:"engine"` // "lazy" | "eager"
	Flatten      bool   `json:"flatten,omitempty"`
	WordTracking bool   `json:"wordTracking,omitempty"`
	Scheme       string `json:"scheme"` // "multitrack" | "associativity"
	MaxLevels    int    `json:"maxLevels"`
	// TinyCache shrinks the hierarchy to a few lines per set (L1 512 B
	// 2-way, L2 2 KB 4-way) so generated footprints hit capacity limits
	// and drive overflow virtualization.
	TinyCache   bool   `json:"tinyCache,omitempty"`
	BackoffBase int    `json:"backoffBase,omitempty"`
	MaxCycles   uint64 `json:"maxCycles"`
	// TieBreakSeed, when non-zero, seeds the scheduler's tie-break
	// perturbation (zero keeps the default lowest-id order).
	TieBreakSeed uint64 `json:"tieBreakSeed,omitempty"`
	// Fallback enables the hybrid engine's STM fallback path: "" or
	// "none" disables it, "serial" is the global-lock irrevocable path,
	// "tl2" the versioned-lock path.
	Fallback string `json:"fallback,omitempty"`
	// RetryBudget is the HTM attempts before a contended transaction
	// falls back (0 = the engine default). Meaningful only with Fallback.
	RetryBudget int `json:"retryBudget,omitempty"`
	// BoundedSpec caps the speculative footprint (capacity faults): past
	// MaxWriteLines/MaxReadLines an HTM attempt capacity-aborts and
	// transitions to the fallback path. Only generated together with
	// Fallback — a bounded machine without one livelocks on any
	// deterministic over-capacity footprint.
	BoundedSpec   bool `json:"boundedSpec,omitempty"`
	MaxReadLines  int  `json:"maxReadLines,omitempty"`
	MaxWriteLines int  `json:"maxWriteLines,omitempty"`
	// Faults is the deterministic fault-injection plan (may be empty).
	Faults []core.FaultViolation `json:"faults,omitempty"`
	// MemModel selects the non-transactional memory consistency model:
	// "" or "sc" (default), "tso", or "relaxed".
	MemModel string `json:"memModel,omitempty"`
	// DrainSeed, when non-zero, seeds the deterministic store-buffer drain
	// policy under a weak MemModel (zero keeps the age-based default).
	DrainSeed uint64 `json:"drainSeed,omitempty"`
	// StoreBufDepth / SBMaxAge bound the weak-memory window (0 = the
	// core defaults).
	StoreBufDepth int    `json:"storeBufDepth,omitempty"`
	SBMaxAge      uint64 `json:"sbMaxAge,omitempty"`
}

// String is the compact case label used in logs and failure reports.
func (mc MachineConfig) String() string {
	nest := "nested"
	if mc.Flatten {
		nest = "flat"
	}
	gran := "line"
	if mc.WordTracking {
		gran = "word"
	}
	s := fmt.Sprintf("%s/%s/%s cpus=%d levels=%d tiny=%v tiebreak=%d faults=%d",
		mc.Engine, nest, gran, mc.CPUs, mc.MaxLevels, mc.TinyCache, mc.TieBreakSeed, len(mc.Faults))
	if mc.Fallback != "" && mc.Fallback != "none" {
		s += fmt.Sprintf(" fb=%s/b%d", mc.Fallback, mc.RetryBudget)
		if mc.BoundedSpec {
			s += fmt.Sprintf(" cap=r%d/w%d", mc.MaxReadLines, mc.MaxWriteLines)
		}
	}
	if mc.MemModel != "" && mc.MemModel != "sc" {
		s += fmt.Sprintf(" mem=%s/d%d", mc.MemModel, mc.DrainSeed)
	}
	return s
}

// setKinds sets cfg's engine, cache scheme, fallback and memory model
// from the config's names, rejecting any name it does not know.
func (mc MachineConfig) setKinds(cfg *core.Config) error {
	switch mc.Engine {
	case "lazy":
		cfg.Engine = core.Lazy
	case "eager":
		cfg.Engine = core.Eager
	default:
		return fmt.Errorf("tmfuzz: unknown engine %q (want lazy or eager)", mc.Engine)
	}
	switch mc.Scheme {
	case "multitrack":
		cfg.Cache.Scheme = cache.Multitrack
	case "associativity":
		cfg.Cache.Scheme = cache.Associativity
	default:
		return fmt.Errorf("tmfuzz: unknown scheme %q (want multitrack or associativity)", mc.Scheme)
	}
	switch mc.Fallback {
	case "", "none":
		cfg.Fallback = core.NoFallback
	case "serial":
		cfg.Fallback = core.SerialFallback
	case "tl2":
		cfg.Fallback = core.TL2Fallback
	default:
		return fmt.Errorf("tmfuzz: unknown fallback %q (want none, serial or tl2)", mc.Fallback)
	}
	mm, err := core.ParseMemModel(mc.MemModel)
	if err != nil {
		return fmt.Errorf("tmfuzz: %w", err)
	}
	cfg.MemModel = mm
	return nil
}

// CoreConfig materializes the core.Config for one run, with the oracle
// attached and history retention on (fuzz runs are short by construction).
// It panics on a name setKinds rejects: the generator emits only known
// names and LoadRepro refuses the rest.
func (mc MachineConfig) CoreConfig() core.Config {
	cc := cache.DefaultConfig()
	if mc.MaxLevels > 0 {
		cc.MaxLevels = mc.MaxLevels
	}
	if mc.TinyCache {
		cc.L1Bytes, cc.L1Ways = 512, 2
		cc.L2Bytes, cc.L2Ways = 2048, 4
	}
	if mc.BoundedSpec {
		cc.BoundedSpec = true
		cc.MaxReadLines = mc.MaxReadLines
		cc.MaxWriteLines = mc.MaxWriteLines
	}
	cfg := core.Config{
		CPUs:          mc.CPUs,
		Cache:         cc,
		Flatten:       mc.Flatten,
		WordTracking:  mc.WordTracking,
		BackoffBase:   mc.BackoffBase,
		MaxCycles:     mc.MaxCycles,
		Oracle:        true,
		OracleHistory: true,
	}
	if err := mc.setKinds(&cfg); err != nil {
		panic(err)
	}
	cfg.HTMRetryBudget = mc.RetryBudget
	if len(mc.Faults) > 0 {
		cfg.Faults = &core.FaultPlan{Violations: append([]core.FaultViolation(nil), mc.Faults...)}
	}
	if mc.TieBreakSeed != 0 {
		r := rng{s: mc.TieBreakSeed}
		cfg.SchedTieBreak = func(tied []int) int { return r.intn(len(tied)) }
	}
	cfg.StoreBufDepth = mc.StoreBufDepth
	cfg.SBMaxAge = mc.SBMaxAge
	if mc.DrainSeed != 0 {
		// A seeded drain policy makes buffered stores retire at random
		// instruction boundaries (and, under relaxed, in random eligible
		// order at fences) instead of only by age — the weak-memory analog
		// of TieBreakSeed, and just as deterministic per seed.
		r := rng{s: mc.DrainSeed}
		cfg.DrainChoose = func(cpu, eligible int, forced bool) int {
			if forced {
				return 1 + r.intn(eligible)
			}
			return r.intn(eligible + 1)
		}
	}
	return cfg
}

// Repro is a replayable failure: everything needed to regenerate the run
// without the generator — the (possibly shrunk) program and the exact
// machine configuration — plus the generator coordinates it came from and
// the failure text.
type Repro struct {
	// Seed and Case locate the original (pre-shrink) case in the
	// generator's space: DeriveCase(Seed, Case).
	Seed uint64 `json:"seed"`
	Case int    `json:"case"`
	// Category is the failure class ("oracle", "invariant", "panic"); the
	// shrinker preserved it while minimizing.
	Category string        `json:"category"`
	Config   MachineConfig `json:"config"`
	Program  *Program      `json:"program"`
	Failure  string        `json:"failure"`
	// Litmus is the generated Go-style listing of Program, for humans.
	Litmus string `json:"litmus"`
}

// JSON renders the reproducer deterministically.
func (r *Repro) JSON() []byte {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		panic(err)
	}
	return append(b, '\n')
}

// LoadRepro parses and validates a reproducer.
func LoadRepro(data []byte) (*Repro, error) {
	var r Repro
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("tmfuzz: bad reproducer: %w", err)
	}
	if r.Program == nil {
		return nil, fmt.Errorf("tmfuzz: reproducer has no program")
	}
	if err := r.Program.Validate(); err != nil {
		return nil, err
	}
	if r.Config.CPUs <= 0 || r.Config.CPUs < len(r.Program.Threads) {
		return nil, fmt.Errorf("tmfuzz: reproducer config has %d CPUs for %d threads", r.Config.CPUs, len(r.Program.Threads))
	}
	if err := r.Config.setKinds(new(core.Config)); err != nil {
		return nil, err
	}
	return &r, nil
}
