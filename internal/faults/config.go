package faults

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"
	"strings"
	"time"

	"fastnet/internal/core"
	"fastnet/internal/topology"
)

// Config parameterizes a soak run. The zero value is not useful; set at
// least Epochs and one fault source. Every random decision — schedules,
// call placement, election starters — derives from Seed, so a run is
// reproducible bit for bit on the discrete-event runtime.
type Config struct {
	Seed    int64
	Epochs  int
	Runtime string        // "des" (default) or "gosim"
	Mode    topology.Mode // topology maintenance protocol (default branching)

	Flaps          int // link flaps per epoch
	FlapLen        int // steps a flapped link stays down (default 1)
	PartitionEvery int // epochs between correlated cut faults (0 = off)
	PartitionHeal  int // epochs until a cut heals (default 1)
	Crashes        int // node crashes per epoch
	Downtime       int // epochs a crashed node stays down (default 1)
	Adversary      bool
	LeaderCrash    float64 // per-epoch probability of crashing the leader

	// Lossy-link profile (core.MsgFaults probabilities). When any of these
	// is nonzero the soak runs its message-fault phases: convergence (I1),
	// the reliable-delivery ledger (I6) and the down-direction link probes
	// (I4) happen on the lossy fabric; exact-state checks (call state,
	// up-direction probes) run after healing it, since arbitrary loss can
	// legitimately defeat the liveness they assert.
	Loss      float64 // per-traversal drop probability
	Dup       float64 // per-traversal duplication probability
	Corrupt   float64 // per-traversal corruption probability
	Jitter    float64 // per-traversal extra-delay probability
	JitterMax int     // max extra delay in time units (default 4)
	// Reorder is the per-traversal FIFO-violation probability. Besides
	// joining the fabric profile, a nonzero value arms invariant I7: each
	// epoch the largest live component re-runs the election under random
	// delays plus a reorder-only profile, and must still elect a single
	// leader owning the whole component.
	Reorder       float64
	ReorderWindow int // max hold-back delay in time units (default 8)

	// Gray-failure profile. Slow joins the fabric as the per-traversal
	// slowdown probability (core.MsgFaults.Slowdown); Stall injects seeded
	// NCU-stall windows into the fabric each epoch. A nonzero value in
	// either arms invariant I8: an adaptive (phi-accrual) failure detector
	// watching a live-but-slowed/stalled leader must raise zero suspicions,
	// and the election must still complete within the I7 bound with
	// slowdown in the profile.
	Slow       float64 // per-traversal gray-link slowdown probability
	SlowFactor float64 // hardware-delay multiplier of a slowed hop (default 4)
	SlowMax    int     // max additive inflation in time units (default 8)
	Stall      int     // NCU stalls injected per epoch
	StallTicks int     // stall window length (default 8)

	// BurstEvery > 0 scales the profile by BurstScale every BurstEvery-th
	// epoch (loss comes in storms, not as a stationary rate).
	BurstEvery int
	BurstScale float64 // default 2

	// Reliable is the number of end-to-end reliable messages sent per epoch
	// between random live pairs while the fabric is lossy; invariant I6
	// checks the delivery ledger (exactly once each, nothing phantom).
	Reliable int

	Calls      int  // calls set up (and failure-checked) per epoch
	NoElection bool // skip the per-epoch re-election invariant

	// Open-loop load plane (DES runtime only). Rate > 0 switches the soak
	// from the churn loop into its open-loop mode: each epoch runs one
	// load-engine sweep of Calls arrivals at Rate*(epoch+1) calls per tick
	// (a rising-pressure rate sweep), checking invariant I9 — the call
	// ledger settles every generated call exactly once, and nothing is
	// blocked or dropped unless an overload source (a capacity limit or a
	// fault profile) is declared.
	Rate    float64 // base arrival rate in calls per tick (0 = classic soak)
	Holding int     // mean call-holding time in ticks (default 256)
	ZipfS   float64 // endpoint-popularity skew exponent (0 = uniform)
	NCUCap  int     // finite NCU service queue (Capacity.NCUQueue; 0 = unlimited)
	LinkCap float64 // per-link token refill rate (Capacity.LinkRate; 0 = unlimited)

	// Shards > 0 runs the DES fabric on the sharded space-parallel scheduler
	// with that many event cores (see sim.WithShards). Because shard mode
	// needs a nonzero lookahead, the fabric's hardware delay becomes 1 instead
	// of the classic soak's 0 — a sharded soak is therefore a different (but
	// per-shard-count deterministic) schedule than the Shards == 0 soak, not a
	// reparallelization of it. DES churn loop only: ignored under gosim,
	// refused in the open-loop mode.
	Shards int

	MaxRounds int           // convergence-round cap (default n+8); refused in the open-loop mode
	Timeout   time.Duration // per-quiescence bound, goroutine runtime only (default 30s)
	Verbose   io.Writer     // optional per-epoch progress lines
}

// A knob is one soak parameter, declared once: the Config field, the
// `fastnet soak` flag that sets it and the condition under which Repro prints
// it. Flags and Repro both walk the list below, so a name in a repro line is
// a registered flag by construction, and adding a knob is adding one entry.
//
// def is what the command line means when the flag is absent; a library
// caller's default is the zero field, which normalize resolves. The two
// differ on purpose: `fastnet soak` with no flags is a busy churn run, a
// zero Config injects nothing.
type knob struct {
	name  string
	field any               // *int, *int64, *float64, *bool, *string, *time.Duration or *topology.Mode
	def   any               // of the field's type (-mode: its name)
	help  string            // the flag's usage line
	shown func(Config) bool // nil = always; a bool knob prints bare, when set
}

// When Repro prints a knob that is not part of every line: inert knobs are
// left out, so a config from before a fault dimension existed keeps the repro
// line it had then.
func ifReorder(cfg Config) bool   { return cfg.Reorder > 0 }
func ifSlow(cfg Config) bool      { return cfg.Slow > 0 }
func ifBurst(cfg Config) bool     { return cfg.lossy() && cfg.BurstEvery > 0 }
func ifStall(cfg Config) bool     { return cfg.Stall > 0 }
func ifOpenLoop(cfg Config) bool  { return cfg.Rate > 0 }
func ifMaxRounds(cfg Config) bool { return cfg.MaxRounds > 0 }
func ifShards(cfg Config) bool    { return cfg.Shards > 0 }
func never(Config) bool           { return false }

// knobs lists every knob of cfg but Verbose (a writer, not a value), in the
// order Repro prints them.
func (cfg *Config) knobs() []knob {
	return []knob{
		{"runtime", &cfg.Runtime, "des", "runtime: des|gosim", nil},
		{"seed", &cfg.Seed, int64(1), "seed for schedules, calls and elections", nil},
		{"epochs", &cfg.Epochs, 50, "churn epochs to run", nil},
		{"mode", &cfg.Mode, "branching-paths", "maintenance protocol: branching-paths|flooding", nil},

		{"flaps", &cfg.Flaps, 2, "link flaps per epoch", nil},
		{"flaplen", &cfg.FlapLen, 1, "steps a flapped link stays down", nil},
		{"partition-every", &cfg.PartitionEvery, 5, "epochs between correlated cuts (0 = off)", nil},
		{"partition-heal", &cfg.PartitionHeal, 1, "epochs until a cut heals", nil},
		{"crashes", &cfg.Crashes, 1, "node crashes per epoch", nil},
		{"downtime", &cfg.Downtime, 1, "epochs a crashed node stays down", nil},
		{"calls", &cfg.Calls, 2, "calls set up and failure-checked per epoch", nil},
		{"leader-crash", &cfg.LeaderCrash, 0.25, "per-epoch probability of crashing the leader", nil},

		{"loss", &cfg.Loss, 0.0, "per-traversal drop probability (lossy-link model)", Config.lossy},
		{"dup", &cfg.Dup, 0.0, "per-traversal duplication probability", Config.lossy},
		{"corrupt", &cfg.Corrupt, 0.0, "per-traversal corruption probability", Config.lossy},
		{"jitter", &cfg.Jitter, 0.0, "per-traversal extra-delay probability", Config.lossy},
		{"jittermax", &cfg.JitterMax, 0, "max extra per-hop delay (default 4)", Config.lossy},
		{"reliable", &cfg.Reliable, 0, "reliable ledger messages per epoch (invariant I6)", Config.lossy},
		{"reorder", &cfg.Reorder, 0.0, "per-traversal reorder probability (arms invariant I7)", ifReorder},
		{"reorder-window", &cfg.ReorderWindow, 0, "max reorder displacement in ticks (default 8)", ifReorder},
		{"slow", &cfg.Slow, 0.0, "per-traversal gray-slowdown probability (arms invariant I8)", ifSlow},
		{"slow-factor", &cfg.SlowFactor, 0.0, "slowdown multiplier on the per-hop delay (default 4)", ifSlow},
		{"slow-max", &cfg.SlowMax, 0, "max additive slowdown in ticks (default 8)", ifSlow},
		{"burst-every", &cfg.BurstEvery, 0, "scale the fault profile up every k-th epoch (0 = off)", ifBurst},
		{"burst-scale", &cfg.BurstScale, 0.0, "burst multiplier (default 2)", ifBurst},

		{"stall", &cfg.Stall, 0, "NCU-stall windows per epoch (arms invariant I8)", ifStall},
		{"stall-ticks", &cfg.StallTicks, 0, "stall window length in ticks (default 8)", ifStall},

		{"rate", &cfg.Rate, 0.0, "open-loop arrival rate in calls/tick (0 = classic churn soak; arms invariant I9)", ifOpenLoop},
		{"holding", &cfg.Holding, 0, "open-loop mean call-holding time in ticks (default 256)", ifOpenLoop},
		{"zipf", &cfg.ZipfS, 0.0, "open-loop endpoint-popularity skew exponent (0 = uniform)", ifOpenLoop},
		{"ncu-cap", &cfg.NCUCap, 0, "open-loop finite NCU service queue (0 = unlimited)", ifOpenLoop},
		{"link-cap", &cfg.LinkCap, 0.0, "open-loop per-link token refill rate (0 = unlimited)", ifOpenLoop},

		{"max-rounds", &cfg.MaxRounds, 0, "convergence-round cap (default n+8)", ifMaxRounds},
		{"shards", &cfg.Shards, 0, "event cores for the sharded DES scheduler (0 = classic serial; implies unit hardware delay)", ifShards},
		{"adversary", &cfg.Adversary, false, "fail the link the last delivery was observed on", nil},
		{"no-election", &cfg.NoElection, false, "skip the per-epoch re-election invariant", nil},
		// The goroutine runtime is not replayable, so its one knob is no part
		// of a repro line.
		{"timeout", &cfg.Timeout, defaultTimeout, "per-quiescence bound (gosim runtime)", never},
	}
}

// defaultTimeout bounds one quiescence wait on the goroutine runtime.
const defaultTimeout = 30 * time.Second

// Flags registers every knob on fs, each flag writing its field of cfg, and
// returns the function to call once fs has parsed the command line: it
// resolves -mode, the one flag whose value is a name, and range-checks the
// rest.
func (cfg *Config) Flags(fs *flag.FlagSet) (parsed func() error) {
	var mode string
	for _, k := range cfg.knobs() {
		switch p := k.field.(type) {
		case *int:
			fs.IntVar(p, k.name, k.def.(int), k.help)
		case *int64:
			fs.Int64Var(p, k.name, k.def.(int64), k.help)
		case *float64:
			fs.Float64Var(p, k.name, k.def.(float64), k.help)
		case *bool:
			fs.BoolVar(p, k.name, k.def.(bool), k.help)
		case *string:
			fs.StringVar(p, k.name, k.def.(string), k.help)
		case *time.Duration:
			fs.DurationVar(p, k.name, k.def.(time.Duration), k.help)
		case *topology.Mode:
			fs.StringVar(&mode, k.name, k.def.(string), k.help)
		}
	}
	return func() error {
		switch mode {
		case "branching-paths", "branching", "broadcast":
			cfg.Mode = topology.ModeBranching
		case "flooding", "flood":
			cfg.Mode = topology.ModeFlood
		default:
			return fmt.Errorf("unknown mode %q (want branching-paths or flooding)", mode)
		}
		return cfg.check()
	}
}

// check rejects a knob outside its range, naming its flag, before normalize
// can read a negative as "default": a probability — a *float64 knob that feeds
// msgFaults, or LeaderCrash — lies in [0, 1]; every other count, rate and
// duration is finite and not negative (-seed is any int64).
func (cfg *Config) check() error {
	probs := []*float64{&cfg.LeaderCrash, &cfg.Loss, &cfg.Dup, &cfg.Corrupt, &cfg.Jitter, &cfg.Reorder, &cfg.Slow}
	for _, k := range cfg.knobs() {
		v, hi, want := 0.0, math.MaxFloat64, "finite and >= 0"
		switch p := k.field.(type) {
		case *int:
			v = float64(*p)
		case *time.Duration:
			v = float64(*p)
		case *float64:
			if v = *p; slices.Contains(probs, p) {
				hi, want = 1, "a probability in [0, 1]"
			}
		}
		if !(v >= 0 && v <= hi) { // NaN is neither
			return fmt.Errorf("-%s %v: must be %s", k.name, reflect.ValueOf(k.field).Elem().Interface(), want)
		}
	}
	return nil
}

// Repro renders the fastnet soak invocation that reproduces this config on
// topology topo/n; the soak driver prints it when an invariant fails. Values
// print as the run uses them, defaults resolved.
func (cfg Config) Repro(topo string, n int) string {
	cfg.normalize()
	// The topology has always followed -runtime; its flags are the caller's.
	ks := slices.Insert(cfg.knobs(), 1, knob{name: "topo", field: &topo}, knob{name: "n", field: &n})
	var b strings.Builder
	b.WriteString("fastnet soak")
	for _, k := range ks {
		v := reflect.ValueOf(k.field).Elem().Interface()
		switch {
		case k.shown != nil && !k.shown(cfg), v == false:
		case v == true:
			fmt.Fprintf(&b, " -%s", k.name)
		default:
			fmt.Fprintf(&b, " -%s %v", k.name, v)
		}
	}
	return b.String()
}

// normalize resolves every default, once, at entry to Soak and to Repro: what
// a zero or negative knob means is decided here, and the run and its
// generators (flaps, partitions, churn, stalls) read the fields as they stand.
func (cfg *Config) normalize() {
	orDefault(&cfg.Runtime, "des")
	orDefault(&cfg.Mode, topology.ModeBranching)
	orDefault(&cfg.FlapLen, 1)
	orDefault(&cfg.PartitionHeal, 1)
	orDefault(&cfg.Downtime, 1)
	orDefault(&cfg.JitterMax, 4)
	orDefault(&cfg.ReorderWindow, 8)
	orDefault(&cfg.SlowFactor, 4)
	orDefault(&cfg.SlowMax, 8)
	orDefault(&cfg.StallTicks, 8)
	orDefault(&cfg.BurstScale, 2)
	orDefault(&cfg.Holding, 256)
	orDefault(&cfg.Timeout, defaultTimeout)
}

// orDefault replaces a zero or negative knob by its default.
func orDefault[T cmp.Ordered](p *T, def T) {
	var zero T
	if *p <= zero {
		*p = def
	}
}

// msgFaults renders the configured base lossy-link profile.
func (cfg Config) msgFaults() core.MsgFaults {
	f := cfg.slowFaults()
	f.Drop, f.Dup, f.Corrupt = cfg.Loss, cfg.Dup, cfg.Corrupt
	f.Jitter, f.JitterMax = cfg.Jitter, core.Time(cfg.JitterMax)
	f.Reorder, f.ReorderWindow = cfg.Reorder, core.Time(cfg.ReorderWindow)
	return f
}

// slowFaults is the gray-link part of the profile alone, what I8 runs its
// detector scenario under. The fields are populated only when Slow is set, so
// gray-free configs build a profile byte-identical to what they built before
// the slowdown dimension existed.
func (cfg Config) slowFaults() core.MsgFaults {
	if cfg.Slow <= 0 {
		return core.MsgFaults{}
	}
	return core.MsgFaults{Slowdown: cfg.Slow, SlowFactor: cfg.SlowFactor, SlowMax: core.Time(cfg.SlowMax)}
}

// lossy reports whether any message-fault phase is configured.
func (cfg Config) lossy() bool { return cfg.msgFaults().Enabled() || cfg.Reliable > 0 }

// gray reports whether any gray-failure dimension is configured (arms I8).
func (cfg Config) gray() bool { return cfg.Slow > 0 || cfg.Stall > 0 }

// profile is epoch's lossy-link profile: the configured one, scaled by
// BurstScale every BurstEvery-th epoch (loss comes in storms, not as a
// stationary rate).
func (cfg Config) profile(epoch int) core.MsgFaults {
	if cfg.BurstEvery > 0 && epoch%cfg.BurstEvery == cfg.BurstEvery-1 {
		return cfg.msgFaults().Scale(cfg.BurstScale)
	}
	return cfg.msgFaults()
}
