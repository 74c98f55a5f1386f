package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"macaw/internal/core"
	"macaw/internal/geom"
	"macaw/internal/mac/csma"
	"macaw/internal/mac/dcf"
	"macaw/internal/mac/macaw"
	"macaw/internal/mac/token"
	"macaw/internal/mac/tournament"
	"macaw/internal/sim"
	"macaw/internal/snapshot"
	"macaw/internal/stats"
	"macaw/internal/topo"
)

// This file implements the warm-started sweep engine (DESIGN.md §15): one
// warmed network per (protocol, seed) is forked into many parameter
// variants, so a 16-variant sweep pays for the warmup once per protocol
// instead of 16 times. Each variant declares a typed delta — a backoff
// constant, the offered load, a retry limit — that core.ApplyDelta installs
// at the warmup barrier, the same instant a cold run under RunConfig.Delta
// would change it; TestSweepWarmMatchesCold pins the byte-identity of the
// two paths. A delta that would invalidate the warmed state (fault.*
// trajectories are fixed at build time) fails closed with a typed error
// instead of producing a silently wrong variant.

// SweepVariant is one parameter point of a sweep: the delta kind (one of
// core.DeltaKinds) and the value it takes after the warmup barrier.
type SweepVariant struct {
	Kind  string
	Value float64
}

// Label renders the variant as it appears in sweep specs and table rows.
func (v SweepVariant) Label() string { return fmt.Sprintf("%s=%g", v.Kind, v.Value) }

// ParseSweepSpec parses a sweep specification of the form
// "kind=v1,v2[;kind2=v3,…]" — for example
// "backoff.max=16,32;load.rate=40,64" — into the variant list, in spec
// order. Unknown parameter kinds and malformed values are errors naming the
// offending field.
func ParseSweepSpec(spec string) ([]SweepVariant, error) {
	known := make(map[string]bool)
	for _, k := range core.DeltaKinds() {
		known[k] = true
	}
	var out []SweepVariant
	for _, group := range strings.Split(spec, ";") {
		group = strings.TrimSpace(group)
		if group == "" {
			continue
		}
		kind, vals, ok := strings.Cut(group, "=")
		kind = strings.TrimSpace(kind)
		if !ok || kind == "" || strings.TrimSpace(vals) == "" {
			return nil, fmt.Errorf("experiments: sweep group %q is not kind=v1,v2,…", group)
		}
		if !known[kind] {
			return nil, fmt.Errorf("experiments: unknown sweep parameter %q (known: %s)",
				kind, strings.Join(core.DeltaKinds(), ", "))
		}
		for _, vs := range strings.Split(vals, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(vs), 64)
			if err != nil {
				return nil, fmt.Errorf("experiments: sweep value %q of %s is not a number", strings.TrimSpace(vs), kind)
			}
			out = append(out, SweepVariant{Kind: kind, Value: v})
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("experiments: sweep spec %q names no variants", spec)
	}
	return out, nil
}

// SweepOptions selects how RunSweep executes.
type SweepOptions struct {
	// CacheDir, when non-empty, holds one warm-state snapshot per
	// (protocol, seed, barrier), keyed by the delta-free config prefix. A
	// warmed network whose state matches the cached snapshot counts a hit;
	// one that diverges fails closed (the cache caught nondeterminism); a
	// missing, corrupt, or configuration-stale file is rewarmed and
	// overwritten.
	CacheDir string
	// CacheMax, when > 0, bounds the number of warm snapshots kept in
	// CacheDir; the oldest beyond the bound are evicted after each write.
	CacheMax int
	// Cold runs every variant from scratch — build, warm up, apply the
	// delta at the barrier, run the tail — with no forking. It exists to
	// measure the speedup and to hold the differential line: warm and cold
	// sweeps must render byte-identical tables.
	Cold bool
}

// SweepInfo reports how a sweep executed.
type SweepInfo struct {
	// Variants and Protocols give the sweep grid: Variants*Protocols runs.
	Variants, Protocols int
	// Warmups counts full warmup simulations performed (one per protocol
	// when warm-started; zero — they are inside ColdRuns — when cold).
	Warmups int
	// Forks counts warm-started tail runs; ColdRuns counts full cold runs.
	Forks, ColdRuns int
	// CacheHits and CacheWrites count warm-cache verifications and
	// (re)writes.
	CacheHits, CacheWrites int
}

// sweepCol is one protocol column of the sweep grid.
type sweepCol struct {
	name    string
	factory func() core.MACFactory
}

// sweepCols returns the sweep's protocol columns: every MAC family the
// reproduction implements, in the paper's order of appearance, then the
// comparison backends (802.11 DCF and the tournament scheme). Every engine
// here implements the full mac.Engine SPI, which is what lets the sweep
// fork one warmed twin per column without per-protocol cases.
func sweepCols() []sweepCol {
	return []sweepCol{
		{"CSMA", func() core.MACFactory { return core.CSMAFactory(csma.Options{ACK: true}) }},
		{"MACA", func() core.MACFactory { return core.MACAFactory() }},
		{"MACAW", func() core.MACFactory { return core.MACAWFactory(macaw.DefaultOptions()) }},
		{"token", func() core.MACFactory { return core.TokenFactory(token.Options{Ring: core.RingOf(5)}) }},
		{"DCF", func() core.MACFactory { return core.DCFFactory(dcf.Options{}) }},
		{"TOURN", func() core.MACFactory { return core.TournamentFactory(tournament.Options{}) }},
	}
}

// SweepLayout is the sweep topology: one cell, a base station and four pads
// all in range of each other, four uplink streams. Dense enough that every
// backoff and load knob moves throughput, small enough that a variant's
// tail runs in milliseconds.
func SweepLayout() topo.Layout {
	l := topo.Layout{
		Name: "sweep",
		Doc:  "one cell, four pads uplink to one base",
		Stations: []topo.StationSpec{
			{Name: "B", Pos: geom.V(0, 0, 12), Base: true},
			{Name: "P1", Pos: geom.V(4, 3, 6)},
			{Name: "P2", Pos: geom.V(2, 3, 6)},
			{Name: "P3", Pos: geom.V(0, 3, 6)},
			{Name: "P4", Pos: geom.V(-2, 3, 6)},
		},
	}
	for _, p := range []string{"P1", "P2", "P3", "P4"} {
		l.Streams = append(l.Streams, topo.StreamSpec{From: p, To: "B", Kind: core.UDP, Rate: 16})
		l.Relations = append(l.Relations,
			topo.Relation{A: p, B: "B", Hears: true},
			topo.Relation{A: "B", B: p, Hears: true})
	}
	return l
}

// sweeper coordinates one RunSweep: the per-protocol warmed twins (each
// built at most once, then shared read-only by every fork) and the
// execution counters.
type sweeper struct {
	cfg   RunConfig
	opts  SweepOptions
	warms map[string]*warmRun

	mu   sync.Mutex
	info SweepInfo
}

// warmRun is the once-cell for one protocol's warmed twin.
type warmRun struct {
	once sync.Once
	src  *WarmSource
	pan  any
}

func (s *sweeper) note(fn func(*SweepInfo)) {
	s.mu.Lock()
	fn(&s.info)
	s.mu.Unlock()
}

// warmLabel keys one protocol's warm state: the sweep's run label without
// any variant suffix, shared by every delta forked from it.
func (s *sweeper) warmLabel(col sweepCol) string {
	return s.cfg.runLabel(col.name)
}

// warm returns the protocol's warmed twin, building it on first use. The
// build runs on whichever variant goroutine gets there first; the others
// block on the once and then fork the same immobile twin (adoption only
// reads it). A warmup failure is replayed to every waiter.
func (s *sweeper) warm(col sweepCol) *WarmSource {
	w := s.warms[col.name]
	w.once.Do(func() {
		defer func() { w.pan = recover() }()
		w.src = s.doWarm(col)
	})
	if w.pan != nil {
		panic(w.pan)
	}
	return w.src
}

// doWarm builds the protocol's network, simulates exactly the warmup, and
// parks it at the barrier with a compacted event queue — the state every
// variant forks from. With a cache directory configured, the parked state
// is verified against (or written as) the cached warm snapshot.
func (s *sweeper) doWarm(col sweepCol) *WarmSource {
	cfg := s.cfg
	n := core.NewNetwork(cfg.Seed)
	a := cfg.newAudit(n)
	if err := SweepLayout().Build(n, col.factory()); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	n.Start(cfg.Total, cfg.Warmup)
	barrier := n.Sim.Now() + sim.Time(cfg.Warmup)
	n.RunTo(barrier)
	n.ForceCompactEvents()
	src := &WarmSource{Net: n, Aud: a.o, Barrier: barrier, State: n.AppendState(nil)}
	s.note(func(i *SweepInfo) { i.Warmups++ })
	s.syncCache(col, src)
	return src
}

// warmState renders the warm source's capture-ordered state inventory:
// network first, oracle expectations second — the order runCtl.capture
// uses, so cached warm snapshots compare line by line with checkpoints.
func warmState(src *WarmSource) []byte {
	b := slices.Clip(src.State)
	if src.Aud != nil {
		b = src.Aud.AppendState(b)
	}
	return b
}

// syncCache verifies the freshly warmed state against the cached warm
// snapshot, or (re)writes the cache entry when there is nothing valid to
// verify against. A state mismatch against a configuration-matched entry is
// nondeterminism and fails closed; every other defect — missing file, torn
// write, CRC damage, a stale entry from another configuration — is repaired
// by overwriting with the state just computed.
func (s *sweeper) syncCache(col sweepCol, src *WarmSource) {
	if s.opts.CacheDir == "" {
		return
	}
	cfg, label := s.cfg, s.warmLabel(col)
	desc := cfg.warmDesc(label)
	state := warmState(src)
	path := filepath.Join(s.opts.CacheDir, "warm-"+snapshot.FileName(label, cfg.Seed, src.Barrier))
	if snap, err := snapshot.ReadFile(path); err == nil &&
		snap.MatchesConfig(desc, cfg.Seed, label) == nil && snap.Barrier == src.Barrier {
		if err := snap.Verify(state); err != nil {
			panic(fmt.Sprintf("experiments: warm cache %s: %v", path, err))
		}
		s.note(func(i *SweepInfo) { i.CacheHits++ })
		return
	}
	if err := os.MkdirAll(s.opts.CacheDir, 0o755); err != nil {
		panic(fmt.Sprintf("experiments: warm cache: %v", err))
	}
	err := snapshot.WriteFile(path, &snapshot.Snapshot{
		ConfigHash: snapshot.ConfigHash(desc), Seed: cfg.Seed, Barrier: src.Barrier,
		Total: cfg.Total, Warmup: cfg.Warmup, Audit: cfg.Audit,
		Table: cfg.table, Run: label, State: state, Desc: desc,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: warm cache: %v", err))
	}
	s.note(func(i *SweepInfo) { i.CacheWrites++ })
	s.evict()
}

// evict prunes the oldest warm snapshots beyond CacheMax. Eviction is
// bookkeeping, not correctness — an evicted entry just rewarms later — so
// unreadable directory entries are skipped rather than fatal.
func (s *sweeper) evict() {
	if s.opts.CacheMax <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ents, err := os.ReadDir(s.opts.CacheDir)
	if err != nil {
		return
	}
	type aged struct {
		name string
		mod  int64
	}
	var files []aged
	for _, e := range ents {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "warm-") || !strings.HasSuffix(e.Name(), ".snap") {
			continue
		}
		fi, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, aged{e.Name(), fi.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mod != files[j].mod {
			return files[i].mod < files[j].mod
		}
		return files[i].name < files[j].name
	})
	for len(files) > s.opts.CacheMax {
		os.Remove(filepath.Join(s.opts.CacheDir, files[0].name))
		files = files[1:]
	}
}

// runCell executes one (variant, protocol) cell and returns its Results.
func (s *sweeper) runCell(cfg RunConfig, v SweepVariant, col sweepCol) core.Results {
	name := col.name + "/" + v.Label()
	if s.opts.Cold {
		defer s.note(func(i *SweepInfo) { i.ColdRuns++ })
		return runLayout(cfg, name, SweepLayout(), col.factory())
	}
	src := s.warm(col)
	n := core.NewNetwork(cfg.Seed)
	rc := cfg.instrument(name, n)
	if err := SweepLayout().Build(n, col.factory()); err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	rc.warm = src
	res := rc.run(n)
	s.note(func(i *SweepInfo) { i.Forks++ })
	return res
}

// RunSweep executes the sweep grid — every variant against every protocol
// column — and renders it as a Table whose rows are variants and whose cell
// values are each run's aggregate throughput. It is RunSweepTables keeping
// only the throughput table, for callers that predate the fairness table.
func RunSweep(cfg RunConfig, variants []SweepVariant, opts SweepOptions) (Table, SweepInfo, error) {
	tabs, info, err := RunSweepTables(cfg, variants, opts)
	if len(tabs) == 0 {
		return Table{}, info, err
	}
	return tabs[0], info, err
}

// RunSweepTables executes the sweep grid — every variant against every
// protocol column — and renders two Tables over the same runs: aggregate
// throughput per cell, then Jain's fairness index across the four uplink
// streams per cell (the tournament-versus-DCF comparison is exactly these
// two read together: a constant window trades peak throughput for a flatter
// allocation). Warm-started by default: one warmup per protocol, forked
// into every variant; opts.Cold runs each cell from scratch instead and
// must produce byte-identical tables.
//
// Sweeps are measurement-grade runs, not triage runs: metrics and trace
// sinks are refused, because a warm-started variant only observes the tail
// — its instrumentation document would silently differ from a cold run's.
// The audit oracle works (its warmup expectations are adopted along with
// the network) and checkpoint plans are refused for the same reason as
// sinks. Runs dispatch through cfg's runner when one is set (WithRunner),
// so variants fork the shared twin concurrently.
func RunSweepTables(cfg RunConfig, variants []SweepVariant, opts SweepOptions) ([]Table, SweepInfo, error) {
	if cfg.Metrics != nil || cfg.Trace != nil {
		return nil, SweepInfo{}, fmt.Errorf("experiments: sweeps cannot carry metrics or trace sinks (a warm fork observes only the tail)")
	}
	if cfg.Checkpoint != nil {
		return nil, SweepInfo{}, fmt.Errorf("experiments: sweeps cannot run under a checkpoint plan")
	}
	if cfg.Delta != nil {
		return nil, SweepInfo{}, fmt.Errorf("experiments: RunConfig.Delta is set per variant by the sweep itself")
	}
	if len(variants) == 0 {
		return nil, SweepInfo{}, fmt.Errorf("experiments: sweep has no variants")
	}
	cfg = cfg.ForTable("sweep")
	cols := sweepCols()
	s := &sweeper{cfg: cfg, opts: opts, warms: make(map[string]*warmRun)}
	for _, col := range cols {
		s.warms[col.name] = &warmRun{}
	}
	s.info.Variants, s.info.Protocols = len(variants), len(cols)

	futs := make([][]*future[core.Results], len(variants))
	for vi, v := range variants {
		futs[vi] = make([]*future[core.Results], len(cols))
		for ci, col := range cols {
			v, col := v, col
			cfgv := cfg
			cfgv.Delta = &snapshot.Delta{Kind: v.Kind, Value: v.Value}
			futs[vi][ci] = goFuture(cfgv, func() core.Results { return s.runCell(cfgv, v, col) })
		}
	}

	rows := make([]string, len(variants))
	for i, v := range variants {
		rows[i] = v.Label()
	}
	mode := "warm-started"
	if opts.Cold {
		mode = "cold"
	}
	tab := Table{
		ID:      "sweep",
		Figure:  "sweep topology",
		Title:   fmt.Sprintf("parameter sweep (%s), aggregate pkt/s per variant", mode),
		Streams: rows,
		Notes:   "each cell is the run's total delivered rate; a warm-started cell is byte-identical to its cold twin",
	}
	fair := Table{
		ID:      "sweep-fairness",
		Figure:  "sweep topology",
		Title:   fmt.Sprintf("parameter sweep (%s), Jain fairness index per variant", mode),
		Streams: rows,
		Notes:   "each cell is Jain's index over the four uplink streams' delivered rates (1.00 = even split)",
	}
	for ci, col := range cols {
		c := Column{Name: col.name, Paper: map[string]float64{}}
		fc := Column{Name: col.name, Paper: map[string]float64{}}
		rs := make([]core.StreamResult, len(variants))
		frs := make([]core.StreamResult, len(variants))
		for vi := range variants {
			res := futs[vi][ci].wait()
			rs[vi] = core.StreamResult{Name: rows[vi], PPS: res.TotalPPS()}
			pps := make([]float64, 0, len(res.Streams))
			for _, sr := range res.Streams {
				rs[vi].Delivered += sr.Delivered
				rs[vi].Offered += sr.Offered
				pps = append(pps, sr.PPS)
			}
			frs[vi] = core.StreamResult{Name: rows[vi], PPS: stats.Jain(pps)}
		}
		c.Results = core.Results{Streams: rs, Duration: cfg.Total, Warmup: cfg.Warmup}
		fc.Results = core.Results{Streams: frs, Duration: cfg.Total, Warmup: cfg.Warmup}
		tab.Columns = append(tab.Columns, c)
		fair.Columns = append(fair.Columns, fc)
	}
	tabs := []Table{tab, fair}
	if f := cfg.runner.Failure(); f != nil {
		return tabs, s.info, f
	}
	s.mu.Lock()
	info := s.info
	s.mu.Unlock()
	return tabs, info, nil
}
