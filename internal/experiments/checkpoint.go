package experiments

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"macaw/internal/core"
	"macaw/internal/oracle"
	"macaw/internal/sim"
	"macaw/internal/snapshot"
)

// CheckpointPlan drives deterministic checkpoint/restore for every run a
// RunConfig launches (DESIGN.md §14). A plan combines four independently
// optional behaviours:
//
//   - Every/Barriers: pause each run at virtual-time barriers and capture its
//     canonical state inventory. With Dir set, each capture is written as an
//     atomic snapshot file.
//   - RestoreSnap: when a run matches the snapshot's (label, seed, config
//     hash), its replayed state at the snapshot's barrier is byte-compared
//     against the stored inventory. Divergence fails closed before a single
//     post-barrier event fires.
//   - Manifest: a crash-safe ledger of completed runs. A run whose results
//     are already recorded is skipped entirely; a sweep killed mid-way
//     resumes past everything that finished.
//   - RequestStop/OnAbort: cooperative shutdown. A stop request (typically a
//     SIGINT/SIGTERM handler) makes each running simulation flush one final
//     checkpoint at its next barrier and then invoke OnAbort with the path.
//
// Checkpointed runs execute on the monolithic serial engine: barriers are
// RunTo pauses of the one event heap, never scheduled events, so pausing
// cannot perturb event sequence numbers and the continued run is
// bit-identical to an uninterrupted one.
type CheckpointPlan struct {
	// Every inserts a barrier each Every of virtual time after run start
	// (0 = only explicit Barriers).
	Every sim.Duration
	// Barriers are explicit absolute virtual times to pause at.
	Barriers []sim.Time
	// Dir, when non-empty, receives one snapshot file per (run, barrier).
	Dir string
	// RestoreSnap, when set, is verified against the matching run's
	// replayed state at the snapshot's barrier.
	RestoreSnap *snapshot.Snapshot
	// Manifest, when set, memoizes completed plain runs for sweep resume.
	Manifest *snapshot.Manifest
	// OnAbort is called exactly once after a stop request, with the path
	// of the last snapshot flushed (empty if none was written). It may
	// not return (os.Exit is typical for signal handlers).
	OnAbort func(last string)

	stop      atomic.Bool
	abortOnce sync.Once

	mu       sync.Mutex
	last     string   // newest snapshot path written
	verified []string // runs whose RestoreSnap verification passed
}

// RequestStop asks every run under this plan to flush a final checkpoint at
// its next barrier and abort. Safe to call from a signal handler goroutine.
func (p *CheckpointPlan) RequestStop() { p.stop.Store(true) }

// Verified reports the run labels whose restore verification passed.
func (p *CheckpointPlan) Verified() []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]string(nil), p.verified...)
}

// LastSnapshot returns the path of the newest snapshot written.
func (p *CheckpointPlan) LastSnapshot() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.last
}

func (p *CheckpointPlan) noteWrote(path string) {
	p.mu.Lock()
	p.last = path
	p.mu.Unlock()
}

func (p *CheckpointPlan) noteVerified(run string) {
	p.mu.Lock()
	p.verified = append(p.verified, run)
	p.mu.Unlock()
}

func (p *CheckpointPlan) abort() {
	p.abortOnce.Do(func() {
		if p.OnAbort != nil {
			p.OnAbort(p.LastSnapshot())
		}
	})
}

// barriersFor merges the periodic and explicit barriers that fall strictly
// inside (start, end), sorted and deduplicated. The restore barrier is
// included so verification always has a pause to run at.
func (p *CheckpointPlan) barriersFor(start, end sim.Time) []sim.Time {
	var bs []sim.Time
	if p.Every > 0 {
		for t := start + sim.Time(p.Every); t < end; t += sim.Time(p.Every) {
			bs = append(bs, t)
		}
	}
	for _, t := range p.Barriers {
		if t > start && t < end {
			bs = append(bs, t)
		}
	}
	if p.RestoreSnap != nil {
		if t := p.RestoreSnap.Barrier; t > start && t < end {
			bs = append(bs, t)
		}
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	out := bs[:0]
	for i, t := range bs {
		if i == 0 || t != bs[i-1] {
			out = append(out, t)
		}
	}
	return out
}

// configDesc is the canonical description of everything that shapes one
// run's event history; its hash binds snapshots and manifest entries to the
// exact configuration that produced them. A sweep delta is part of that
// identity — two variants of one sweep are different runs — so it appends
// as a final field. Delta-free configs render exactly the pre-delta ("v1")
// string, keeping every previously written snapshot and manifest entry
// valid.
func (cfg RunConfig) configDesc(label string) string {
	d := cfg.warmDesc(label)
	if cfg.Delta != nil {
		d += fmt.Sprintf("|delta=%s:%g", cfg.Delta.Kind, cfg.Delta.Value)
	}
	return d
}

// warmDesc is configDesc minus the delta field: the canonical description
// of the run up to the delta barrier. Every variant of one sweep shares it,
// which is what makes it the warm-state cache key — a snapshot captured at
// the barrier under this description is valid to fork into any delta.
func (cfg RunConfig) warmDesc(label string) string {
	return fmt.Sprintf("v1|table=%s|run=%s|total=%d|warmup=%d|seed=%d|audit=%t",
		cfg.table, label, cfg.Total, cfg.Warmup, cfg.Seed, cfg.Audit)
}

// run executes the built network under the config's checkpoint plan (or
// plainly, with no plan) and invokes the instrumentation finish hook. It is
// the single chokepoint every generator's run goes through.
//
// extra appends run-specific observable state (for example a fault
// injector's trajectory) to each captured inventory. Runs with extras are
// never memoized: their tables read state (fault counters) that only exists
// after a real execution.
func (rc runCtl) run(n *core.Network, extra ...func([]byte) []byte) core.Results {
	cfg, plan := rc.cfg, rc.cfg.Checkpoint
	if rc.warm != nil {
		return rc.runTail(n)
	}
	if plan == nil && cfg.Delta == nil {
		res := n.Run(cfg.Total, cfg.Warmup)
		rc.finish(res)
		return res
	}

	desc := cfg.configDesc(rc.label)
	hash := snapshot.ConfigHash(desc)
	key := snapshot.Key(rc.label, hash, cfg.Seed)
	memoize := plan != nil && plan.Manifest != nil &&
		cfg.Metrics == nil && cfg.Trace == nil && len(extra) == 0
	if memoize {
		if payload, ok := plan.Manifest.Get(key); ok {
			if res, err := decodeResults(payload); err == nil {
				return res
			}
			// A corrupt entry is re-run, never trusted.
		}
	}

	n.Start(cfg.Total, cfg.Warmup)
	start, end := n.Sim.Now(), n.End()
	// The delta barrier is where a sweep variant's parameters change: the
	// end of warmup, the same instant a warm fork adopts. It merges into
	// the checkpoint barrier list so a captured snapshot at that instant is
	// always pre-delta — exactly the state a warm fork starts from.
	deltaAt := sim.Time(-1)
	if cfg.Delta != nil {
		deltaAt = start + sim.Time(cfg.Warmup)
	}
	for _, b := range mergeBarrier(planBarriers(plan, start, end), deltaAt, start, end) {
		n.RunTo(b)
		if plan != nil {
			state := rc.capture(n, extra)
			if snap := plan.RestoreSnap; snap != nil && snap.Run == rc.label {
				if err := snap.MatchesConfig(desc, cfg.Seed, rc.label); err != nil {
					panic(fmt.Sprintf("experiments: restore of %s: %v", rc.label, err))
				} else if b == snap.Barrier {
					if err := snap.Verify(state); err != nil {
						panic(fmt.Sprintf("experiments: restore of %s at t=%v: %v", rc.label, b, err))
					}
					plan.noteVerified(rc.label)
				}
			}
			if plan.Dir != "" {
				path := filepath.Join(plan.Dir, snapshot.FileName(rc.label, cfg.Seed, b))
				err := snapshot.WriteFile(path, &snapshot.Snapshot{
					ConfigHash: hash, Seed: cfg.Seed, Barrier: b,
					Total: cfg.Total, Warmup: cfg.Warmup, Audit: cfg.Audit,
					Table: cfg.table, Run: rc.label, State: state,
					Desc: desc, Delta: cfg.Delta,
				})
				if err != nil {
					panic(fmt.Sprintf("experiments: writing checkpoint: %v", err))
				}
				plan.noteWrote(path)
			}
			if plan.stop.Load() {
				plan.abort()
				// OnAbort returned: the stop was advisory; keep running.
			}
		}
		if b == deltaAt {
			if err := n.ApplyDelta(cfg.Delta.Kind, cfg.Delta.Value); err != nil {
				panic(fmt.Sprintf("experiments: delta for %s: %v", rc.label, err))
			}
		}
	}
	n.RunTo(end)
	res := n.Collect()
	rc.finish(res)
	if memoize {
		if err := plan.Manifest.Put(key, encodeResults(res)); err != nil {
			panic(fmt.Sprintf("experiments: recording run in manifest: %v", err))
		}
	}
	return res
}

// planBarriers is barriersFor tolerating a nil plan (a delta-only run).
func planBarriers(plan *CheckpointPlan, start, end sim.Time) []sim.Time {
	if plan == nil {
		return nil
	}
	return plan.barriersFor(start, end)
}

// mergeBarrier splices one extra barrier into a sorted barrier list,
// keeping it sorted and deduplicated. t < 0 means no extra barrier; a t on
// the boundary (== start or >= end) is dropped like barriersFor would.
func mergeBarrier(bs []sim.Time, t, start, end sim.Time) []sim.Time {
	if t < 0 || t <= start || t >= end {
		return bs
	}
	i := sort.Search(len(bs), func(i int) bool { return bs[i] >= t })
	if i < len(bs) && bs[i] == t {
		return bs
	}
	out := make([]sim.Time, 0, len(bs)+1)
	out = append(out, bs[:i]...)
	out = append(out, t)
	return append(out, bs[i:]...)
}

// WarmSource is a warmed twin parked at its barrier, ready to be forked.
// Net must be stopped exactly at Barrier with its event queue compacted
// (core.Network.ForceCompactEvents); Aud is the oracle that observed the
// warmup when the runs are audited, nil otherwise. State is Net's state
// inventory (core.Network.AppendState) captured once at the barrier: every
// fork is verified against it, so the twin is rendered once, not once per
// fork. Adoption only reads the twin, so one WarmSource serves any number of
// sequential forks; the sweep engine serializes access per source.
type WarmSource struct {
	Net     *core.Network
	Aud     *oracle.Oracle
	Barrier sim.Time
	State   []byte
}

// runTail executes a warm-started run: the freshly built network adopts the
// twin's state at the barrier (byte-verified against the stored capture
// inside AdoptFromState — divergence fails closed), the oracle adopts the
// warmup's expectations, the variant's delta is applied, and only the tail
// simulates. The produced Results and final state inventory are
// byte-identical to a cold run applying the same delta at the same barrier —
// TestSweepWarmMatchesCold holds the line.
func (rc runCtl) runTail(n *core.Network) core.Results {
	cfg := rc.cfg
	if cfg.Checkpoint != nil {
		panic("experiments: a warm-started run cannot carry a checkpoint plan")
	}
	if err := n.AdoptFromState(rc.warm.Net, rc.warm.State); err != nil {
		panic(fmt.Sprintf("experiments: forking %s: %v", rc.label, err))
	}
	if rc.aud.o != nil {
		if err := rc.aud.o.AdoptFrom(rc.warm.Aud); err != nil {
			panic(fmt.Sprintf("experiments: forking %s: %v", rc.label, err))
		}
	}
	if cfg.Delta != nil {
		if err := n.ApplyDelta(cfg.Delta.Kind, cfg.Delta.Value); err != nil {
			panic(fmt.Sprintf("experiments: delta for %s: %v", rc.label, err))
		}
	}
	n.RunTo(n.End())
	res := n.Collect()
	rc.finish(res)
	return res
}

// capture renders the run's complete canonical state inventory: network
// (engine, phy, stations, streams), then the passive oracle expectations,
// then any run-specific extras — always in that order, so a capture and its
// restore-side recapture are comparable line by line.
func (rc runCtl) capture(n *core.Network, extra []func([]byte) []byte) []byte {
	b := n.AppendState(nil)
	if rc.obs != nil {
		b = rc.obs(b)
	}
	for _, fn := range extra {
		b = fn(b)
	}
	return b
}

// encodeResults renders results for the manifest. gob round-trips every
// field (float64s included) bit-exactly, so memoized rows render
// byte-identically to freshly computed ones.
func encodeResults(res core.Results) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(res); err != nil {
		panic(fmt.Sprintf("experiments: encoding results: %v", err))
	}
	return buf.Bytes()
}

func decodeResults(payload []byte) (core.Results, error) {
	var res core.Results
	err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&res)
	return res, err
}

// ReplayRun restores a snapshot: it resolves the generator named by the
// snapshot's table id, configures a run of the same shape, and re-executes
// the generator with the snapshot armed for verification. The run matching
// the snapshot replays to the barrier, byte-compares its state inventory
// against the stored one (diverging fails closed), and continues — so the
// returned table is bit-identical to an uninterrupted run. The caller's cfg
// supplies observation-only settings (Metrics, Trace, TraceFrom); run shape
// (durations, seed, audit) comes from the snapshot.
func ReplayRun(snap *snapshot.Snapshot, cfg RunConfig) (t Table, err error) {
	gen, ok := generatorByID(snap.Table)
	if !ok {
		return Table{}, fmt.Errorf("experiments: snapshot names unknown table %q", snap.Table)
	}
	// A replay divergence (or any run abort: oracle violation, watchdog)
	// surfaces as a panic inside the generator; fail closed with an error
	// rather than crashing the restoring process.
	defer func() {
		if p := recover(); p != nil {
			t, err = Table{}, fmt.Errorf("experiments: replay failed: %v", p)
		}
	}()
	cfg.Total = snap.Total
	cfg.Warmup = snap.Warmup
	cfg.Seed = snap.Seed
	cfg.Audit = snap.Audit
	cfg.Delta = snap.Delta
	if cfg.Checkpoint == nil {
		cfg.Checkpoint = &CheckpointPlan{}
	}
	cfg.Checkpoint.RestoreSnap = snap
	t = gen.Run(cfg.ForTable(snap.Table))
	for _, run := range cfg.Checkpoint.Verified() {
		if run == snap.Run {
			return t, nil
		}
	}
	return t, fmt.Errorf("experiments: no run in table %q matched snapshot run %q (config or label drift)", snap.Table, snap.Run)
}

// generatorByID resolves a table id across every generator family: the
// paper's tables, the extension experiments, and the chaos table.
func generatorByID(id string) (Generator, bool) {
	if g, ok := ByID(id); ok {
		return g, true
	}
	for _, g := range Extensions() {
		if g.ID == id {
			return g, true
		}
	}
	if g := ChaosGenerator(); g.ID == id {
		return g, true
	}
	return Generator{}, false
}
