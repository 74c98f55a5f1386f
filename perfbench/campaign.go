package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"macaw/internal/campaign"
	"macaw/internal/snapshot"
	"macaw/perfbench/layers"
)

// campaignSeedsPerTable gives 2 x 80 = 160 jobs: 16 result latencies lie
// beyond p90, and each op's CPU work outweighs the two campaign-record
// fsyncs, whose latency the host disk decides; 100-job ops were markedly
// noisier from run to run.
const campaignSeedsPerTable = 80

// campaignTables are short single-table jobs; their runs are cheap, so the
// cold phase is dominated by the ledger and the service path.
var campaignTables = []string{"table3", "table9"}

// campaignWorkload drives the campaign HTTP API on loopback as one client
// waiting on one stream (a closed batch), in three phases over one state
// directory: a cold submission, an engine restart, and a renamed
// resubmission served from cache. campaignProbe runs it.
type campaignWorkload struct {
	ops int
	// lastDir and lastJobs are the latest op's state directory and jobs,
	// kept for the ledger replay.
	lastDir  string
	lastJobs []job
}

// campaignProbe is the campaign probe of the paper-tables traced run: one
// campaign op on the run's first input for the service's own timings, the
// ledger replay of that op, and a second op under the CPU profiler for the
// ledger, gob, campaign and HTTP layers' shares.
//
// The campaign is not a workload of its own: its cold phase waits on a
// flush to disk per job, and over five seeds its wall time spread by 31 %
// and 33 % in two sets on a shared 2-vCPU host, past any bound the
// benchmark may set.
func campaignProbe(e *env) (map[string]float64, error) {
	w := &campaignWorkload{}
	if err := w.setup(e); err != nil {
		return nil, err
	}
	e.input = e.inputs[0]
	s, err := timeOp(e, w, nil)
	if err != nil {
		return nil, err
	}
	out, err := w.layerMetrics(e)
	if err != nil {
		return nil, err
	}
	for k, x := range s.stats {
		out[k] = x
	}
	var prof bytes.Buffer
	if _, err := timeOp(e, w, &prof); err != nil {
		return nil, err
	}
	p, err := layers.Parse(prof.Bytes())
	if err != nil {
		return nil, err
	}
	tab, err := layers.Fold(p, "nanoseconds")
	if err != nil {
		return nil, err
	}
	for _, l := range []string{"snapshot", "gob", "campaign", "http"} {
		out[l+".self_share"] = tab.Share(l)
	}
	return out, w.cleanup(e)
}

// job is one (table, seed) pair of the manifest, in declaration order.
type job struct {
	table string
	seed  int64
}

// daemon is one engine serving HTTP on a loopback port.
type daemon struct {
	eng    *campaign.Engine
	srv    *http.Server
	served chan error
	base   string
	client *http.Client
}

// openDaemon opens an engine on dir, serves it on 127.0.0.1, and returns
// once /readyz answers 200.
func openDaemon(e *env, dir string) (*daemon, error) {
	end := e.spans.begin("campaign.NewEngine")
	eng, err := campaign.NewEngine(dir, e.jobs)
	end()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		eng.Drain()
		return nil, err
	}
	d := &daemon{
		eng: eng, srv: &http.Server{Handler: campaign.NewServer(eng)}, served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}},
	}
	go func() { d.served <- d.srv.Serve(ln) }()
	body, code, err := d.get(e, "/readyz")
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("/readyz = %d %q", code, body)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close stops the server, waits for it, and drains the engine.
func (d *daemon) close() error {
	err := d.srv.Shutdown(context.Background())
	if serr := <-d.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	d.client.CloseIdleConnections()
	d.eng.Drain()
	return err
}

func (d *daemon) get(e *env, path string) ([]byte, int, error) {
	end := e.spans.begin("GET " + strings.SplitN(path, "?", 2)[0])
	defer end()
	resp, err := d.client.Get(d.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// submit posts a manifest and returns the campaign id and its job count.
func (d *daemon) submit(e *env, manifest []byte) (string, int, error) {
	end := e.spans.begin("POST /campaigns")
	defer end()
	resp, err := d.client.Post(d.base+"/campaigns", "application/json", bytes.NewReader(manifest))
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	var rep struct {
		ID   string `json:"id"`
		Jobs int    `json:"jobs"`
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", 0, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", 0, fmt.Errorf("POST /campaigns = %d %q", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &rep); err != nil {
		return "", 0, err
	}
	return rep.ID, rep.Jobs, nil
}

// stream reads a campaign's JSONL result stream to its end, returning the
// bytes and each line's arrival time after since.
func (d *daemon) stream(e *env, id string, since time.Time) ([]byte, []float64, error) {
	end := e.spans.begin("GET /campaigns/{id}/results")
	defer end()
	resp, err := d.client.Get(d.base + "/campaigns/" + id + "/results?wait=1")
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, nil, fmt.Errorf("results of %s = %d", id, resp.StatusCode)
	}
	var all []byte
	var arrivals []float64
	r := bufio.NewReader(resp.Body)
	for {
		line, err := r.ReadBytes('\n')
		if len(line) > 0 {
			all = append(all, line...)
			arrivals = append(arrivals, time.Since(since).Seconds())
		}
		if err == io.EOF {
			return all, arrivals, nil
		}
		if err != nil {
			return nil, nil, err
		}
	}
}

// status fetches a campaign's status document.
func (d *daemon) status(e *env, id string) (campaign.Status, error) {
	var st campaign.Status
	body, code, err := d.get(e, "/campaigns/"+id)
	if err == nil && code != http.StatusOK {
		err = fmt.Errorf("status of %s = %d", id, code)
	}
	if err == nil {
		err = json.Unmarshal(body, &st)
	}
	return st, err
}

// setup opens an engine on a fresh state directory, as a daemon start
// does.
func (w *campaignWorkload) setup(e *env) error {
	dir := e.scratch("setup-state")
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	d, err := openDaemon(e, dir)
	if err != nil {
		return err
	}
	return d.close()
}

// cleanup removes the previous op's state directory.
func (w *campaignWorkload) cleanup(e *env) error {
	if w.lastDir == "" {
		return nil
	}
	return os.RemoveAll(w.lastDir)
}

// campaignJobs lists the jobs of an input's campaign in declaration order:
// each table at the seeds 1000·input + 0..79.
func campaignJobs(input int64) []job {
	var jobs []job
	for _, t := range campaignTables {
		for i := int64(0); i < campaignSeedsPerTable; i++ {
			jobs = append(jobs, job{t, input*1000 + i})
		}
	}
	return jobs
}

// manifestNamed renders a manifest of jobs under a campaign name; job cache
// keys exclude the name, so a renamed resubmission is served from cache.
func manifestNamed(name string, jobs []job) ([]byte, error) {
	var runs []map[string]any
	for _, t := range campaignTables {
		var seeds []int64
		for _, j := range jobs {
			if j.table == t {
				seeds = append(seeds, j.seed)
			}
		}
		runs = append(runs, map[string]any{"table": t, "seeds": seeds})
	}
	return json.Marshal(map[string]any{"name": name, "total_s": 2, "warmup_s": 0.5, "runs": runs})
}

func (w *campaignWorkload) op(e *env) (opStats, error) {
	jobs := campaignJobs(e.input)
	cold, err := manifestNamed("perfbench", jobs)
	if err != nil {
		return nil, err
	}
	renamed, err := manifestNamed("perfbench-renamed", jobs)
	if err != nil {
		return nil, err
	}
	w.ops++
	dir := e.scratch("state-" + strconv.Itoa(w.ops))
	w.lastDir, w.lastJobs = dir, jobs
	st := opStats{}

	// Cold: every job simulates and is recorded in the ledger.
	start := time.Now()
	d, err := openDaemon(e, dir)
	if err != nil {
		return nil, err
	}
	wchar0, err := procWchar()
	if err != nil {
		d.close()
		return nil, err
	}
	t0 := time.Now()
	id, n, err := d.submit(e, cold)
	st["http.submit_ms"] = time.Since(t0).Seconds() * 1e3
	e.tally.check(n == len(jobs), "cold submission expanded to %d jobs, want %d", n, len(jobs))
	var coldStream []byte
	var arrivals []float64
	if err == nil {
		coldStream, arrivals, err = d.stream(e, id, t0)
	}
	if err == nil && len(arrivals) == 0 {
		err = fmt.Errorf("campaign %s streamed no results", id)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	wchar1, err := procWchar()
	if err != nil {
		d.close()
		return nil, err
	}
	coldWall := arrivals[len(arrivals)-1]
	st["campaign.write_mb"] = (wchar1 - wchar0) / 1e6
	st["campaign.runs_per_s"] = float64(len(jobs)) / coldWall
	st["campaign.ttfr_s"] = arrivals[0]
	st["campaign.result_p50_s"] = quantile(arrivals, 0.5)
	st["campaign.result_p90_s"] = quantile(arrivals, 0.9)
	st["http.stream_mb"] = float64(len(coldStream)) / 1e6
	e.tally.check(len(arrivals) == len(jobs) && topPercentile(len(arrivals)) >= 0.9,
		"cold stream has %d results for %d jobs", len(arrivals), len(jobs))
	e.checkDigest("campaign-stream", sha(coldStream))
	if err := d.close(); err != nil {
		return nil, err
	}
	coldPhase := time.Since(start)

	// The phases are timed apart, with the cold phase's writes flushed in
	// between: on ext4's ordered mode the next campaign-record fsync would
	// otherwise wait for the whole cold ledger to reach the disk, a cost
	// set by the host disk and by how soon the next phase follows, not by
	// the service.
	syscall.Sync()

	// Restart: a new engine on the same state reloads the campaign and
	// serves every job from the ledger.
	t1 := time.Now()
	d, err = openDaemon(e, dir)
	if err != nil {
		return nil, err
	}
	st["campaign.restart_s"] = time.Since(t1).Seconds()
	restarted, _, err := d.stream(e, id, t1)
	if err == nil {
		var s campaign.Status
		if s, err = d.status(e, id); err == nil {
			e.tally.check(s.CacheHits == len(jobs), "restarted campaign had %d cache hits of %d jobs", s.CacheHits, len(jobs))
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	e.tally.check(bytes.Equal(restarted, coldStream), "restarted stream differs from the cold stream")

	// Renamed resubmission: a new campaign whose every job is a cache hit.
	t2 := time.Now()
	id2, _, err := d.submit(e, renamed)
	var cached []byte
	if err == nil {
		cached, _, err = d.stream(e, id2, t2)
	}
	st["campaign.cached_wall_s"] = time.Since(t2).Seconds()
	if err == nil {
		var s campaign.Status
		if s, err = d.status(e, id2); err == nil {
			st["campaign.cache_hits"] = float64(s.CacheHits)
			e.tally.check(s.CacheHits == len(jobs), "renamed campaign had %d cache hits of %d jobs", s.CacheHits, len(jobs))
		}
	}
	if err != nil {
		d.close()
		return nil, err
	}
	e.tally.check(id2 != id && bytes.Equal(cached, coldStream), "renamed resubmission stream differs from the cold stream")
	err = d.close()
	st["wall_s"] = (coldPhase + time.Since(t1)).Seconds()
	return st, err
}

// layerMetrics replays the latest campaign's ledger payloads, in job order,
// into a fresh file-backed manifest — timing each Put and summing the file
// size after each — then times opening the result.
func (w *campaignWorkload) layerMetrics(e *env) (map[string]float64, error) {
	jobs := w.lastJobs
	src, err := snapshot.OpenManifest(filepath.Join(w.lastDir, "cache.bin"))
	if err != nil {
		return nil, err
	}
	// Ledger keys are "<spec>|<config hash>|<seed>"; order them as the
	// manifest declares the jobs.
	pos := map[string]int{}
	for i, j := range jobs {
		pos["table:"+j.table+"|"+strconv.FormatInt(j.seed, 10)] = i
	}
	ordered := make([]string, len(jobs))
	for _, k := range src.Keys() {
		parts := strings.Split(k, "|")
		i, ok := pos[parts[0]+"|"+parts[len(parts)-1]]
		if len(parts) != 3 || !ok || ordered[i] != "" {
			return nil, fmt.Errorf("unexpected ledger key %q", k)
		}
		ordered[i] = k
	}
	path := e.scratch("replay.bin")
	dst, err := snapshot.OpenManifest(path)
	if err != nil {
		return nil, err
	}
	var puts []float64
	var written float64
	for _, k := range ordered {
		if k == "" {
			return nil, fmt.Errorf("ledger holds %d entries for %d jobs", src.Len(), len(jobs))
		}
		payload, _ := src.Get(k)
		end := e.spans.begin("snapshot.Manifest.Put")
		t0 := time.Now()
		err := dst.Put(k, payload)
		puts = append(puts, time.Since(t0).Seconds()*1e3)
		end()
		if err != nil {
			return nil, err
		}
		fi, err := os.Stat(path)
		if err != nil {
			return nil, err
		}
		written += float64(fi.Size())
	}
	end := e.spans.begin("snapshot.OpenManifest")
	t0 := time.Now()
	re, err := snapshot.OpenManifest(path)
	openMs := time.Since(t0).Seconds() * 1e3
	end()
	if err != nil {
		return nil, err
	}
	e.tally.check(re.Len() == len(jobs), "replayed ledger reopened with %d of %d entries", re.Len(), len(jobs))
	fi, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		"ledger.put_p50_ms": quantile(puts, 0.5),
		"ledger.put_p90_ms": quantile(puts, 0.9),
		"ledger.write_mb":   written / 1e6,
		"ledger.open_ms":    openMs,
		"ledger.bytes":      float64(fi.Size()),
	}, nil
}
