// Package layers folds a CPU profile into the simulator's layer table: each
// sample is charged to the layer of its leaf frame, so a layer's share is
// its self time. The package-to-layer map below is the single place a new
// package is assigned a layer; packages it does not name land in the
// "other" bucket, which the table always reports so that an unmapped hot
// package shows instead of vanishing.
package layers

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// helper marks packages whose frames are charged to their nearest caller
// outside the helpers: standard-library utilities (sorting, formatting,
// maps, syscalls) do work on behalf of the layer that called them.
const helper = ""

// packageLayers maps an import-path prefix to its layer. The longest
// matching prefix wins; a prefix matches a whole path element, so
// "macaw/internal/mac" does not match "macaw/internal/macfoo".
var packageLayers = map[string]string{
	"macaw/internal/sim":            "sim",
	"macaw/internal/phy":            "phy",
	"macaw/internal/geom":           "geom",
	"macaw/internal/mac":            "mac.common",
	"macaw/internal/backoff":        "mac.common",
	"macaw/internal/frame":          "mac.common",
	"macaw/internal/mac/csma":       "mac.csma",
	"macaw/internal/mac/maca":       "mac.maca",
	"macaw/internal/mac/macaw":      "mac.macaw",
	"macaw/internal/mac/token":      "mac.token",
	"macaw/internal/mac/dcf":        "mac.dcf",
	"macaw/internal/mac/tournament": "mac.tournament",
	"macaw/internal/core":           "core",
	"macaw/internal/transport":      "transport",
	"macaw/internal/traffic":        "traffic",
	"macaw/internal/fault":          "fault",
	"macaw/internal/oracle":         "oracle",
	"macaw/internal/metrics":        "metrics",
	"macaw/internal/trace":          "trace",
	"macaw/internal/stats":          "experiments",
	"macaw/internal/experiments":    "experiments",
	"macaw/internal/topo":           "topo",
	"macaw/internal/snapshot":       "snapshot",
	"macaw/internal/campaign":       "campaign",
	"macaw/internal/netem":          "netem",
	"encoding/gob":                  "gob",
	"encoding/json":                 "json",
	"net/http":                      "http",
	"net/textproto":                 "http",
	"net/url":                       "http",
	"mime":                          "http",
	// The profiled binary's own code (macawsim's flags, the benchmark's
	// workloads and output digests) and the profiler's encoder.
	"main":            "main",
	"macaw/perfbench": "main",
	"runtime/pprof":   "profiler",
	"compress":        "profiler",
	"crypto":          helper,

	"runtime":         helper,
	"internal":        helper,
	"vendor":          helper,
	"sync":            helper,
	"sort":            helper,
	"slices":          helper,
	"maps":            helper,
	"cmp":             helper,
	"iter":            helper,
	"unique":          helper,
	"strconv":         helper,
	"strings":         helper,
	"bytes":           helper,
	"bufio":           helper,
	"fmt":             helper,
	"unicode":         helper,
	"math":            helper,
	"reflect":         helper,
	"errors":          helper,
	"io":              helper,
	"os":              helper,
	"syscall":         helper,
	"time":            helper,
	"context":         helper,
	"container":       helper,
	"hash":            helper,
	"path":            helper,
	"net":             helper,
	"encoding/binary": helper,
	"encoding/base64": helper,
	"encoding/hex":    helper,
}

// gcPrefixes name the runtime functions that are garbage collection or
// allocation; a sample whose first non-helper frame is one of them is
// charged to the "gc" layer.
var gcPrefixes = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray", "runtime.makeslice",
	"runtime.growslice", "runtime.makemap", "runtime.mapassign_growing", "runtime.hashGrow", "runtime.growWork",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)", "runtime.(*mspan)",
	"runtime.(*gcWork)", "runtime.(*gcControllerState)", "runtime.(*pageAlloc)", "runtime.(*scavenger",
	"runtime.(*sweepLocked)", "runtime.(*sweepLocker)", "runtime.gc", "runtime.scan", "runtime.greyobject",
	"runtime.markroot", "runtime.markBits", "runtime.wbBuf", "runtime.bulkBarrier", "runtime.sweepone",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.heapBits", "runtime.findObject", "runtime.spanOf",
	"runtime.deductSweepCredit", "runtime.nextFreeFast", "runtime.memclrNoHeapPointersChunked",
	"runtime.typePointers", "runtime.(*typePointers)", "runtime.heapSetType", "runtime.(*gcBits)",
	"runtime.shade", "runtime.(*markBits)",
}

// Other is the bucket for frames of packages the map does not name.
const Other = "other"

// Runtime is the bucket for samples whose every frame is a helper (the
// scheduler, idle network polling).
const Runtime = "runtime"

// PackageOf returns the import path of a pprof function name such as
// "macaw/internal/mac/dcf.(*DCF).onTimer" or "runtime.mallocgc".
func PackageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOfPackage returns the layer of an import path and whether the map
// names it.
func layerOfPackage(pkg string) (string, bool) {
	for p := pkg; ; {
		if l, ok := packageLayers[p]; ok {
			return l, true
		}
		i := strings.LastIndexByte(p, '/')
		if i < 0 {
			return "", false
		}
		p = p[:i]
	}
}

// LayerOf returns the layer a sample's stack (leaf first) is charged to.
func LayerOf(stack []string) string {
	for _, fn := range stack {
		if !strings.Contains(fn, ".") {
			// Assembly routines (gcWriteBarrier, aeshashbody) carry no
			// package qualifier; they all belong to the runtime.
			fn = "runtime." + fn
		}
		if strings.HasPrefix(fn, "runtime.") {
			for _, p := range gcPrefixes {
				if strings.HasPrefix(fn, p) {
					return "gc"
				}
			}
		}
		l, ok := layerOfPackage(PackageOf(fn))
		if !ok {
			return Other
		}
		if l != helper {
			return l
		}
	}
	return Runtime
}

// Table is a profile folded into layers.
type Table struct {
	// Unit names the summed sample value ("nanoseconds" for CPU profiles).
	Unit string
	// Total is the sum of the value over all samples.
	Total int64
	// Self maps each layer to the value charged to it.
	Self map[string]int64
}

// Fold charges every sample of p to its layer, summing the value of the
// given unit ("nanoseconds" for CPU profiles; "count" works for any
// profile).
func Fold(p *Profile, unit string) (Table, error) {
	vi := p.ValueIndex(unit)
	if vi < 0 {
		return Table{}, fmt.Errorf("layers: profile has no %q values (types %v)", unit, p.Types)
	}
	t := Table{Unit: unit, Self: map[string]int64{}}
	for _, s := range p.Samples {
		if vi >= len(s.Values) {
			return Table{}, errMalformed
		}
		v := s.Values[vi]
		t.Self[LayerOf(s.Stack)] += v
		t.Total += v
	}
	return t, nil
}

// Add accumulates another table of the same unit into t.
func (t *Table) Add(o Table) {
	if t.Self == nil {
		t.Self = map[string]int64{}
		t.Unit = o.Unit
	}
	t.Total += o.Total
	for l, v := range o.Self {
		t.Self[l] += v
	}
}

// Share returns the fraction of the total charged to layer (0 for an empty
// table). Shares over all layers sum to 1.
func (t Table) Share(layer string) float64 {
	if t.Total == 0 {
		return 0
	}
	return float64(t.Self[layer]) / float64(t.Total)
}

// PrefixShare sums the shares of every layer equal to prefix or starting
// with prefix+"." — "mac" covers mac.common and every backend.
func (t Table) PrefixShare(prefix string) float64 {
	var v int64
	for l, x := range t.Self {
		if l == prefix || strings.HasPrefix(l, prefix+".") {
			v += x
		}
	}
	if t.Total == 0 {
		return 0
	}
	return float64(v) / float64(t.Total)
}

// Layers returns the layer names by descending value, ties by name; the
// Other bucket is always present.
func (t Table) Layers() []string {
	out := []string{}
	seenOther := false
	for l := range t.Self {
		out = append(out, l)
		seenOther = seenOther || l == Other
	}
	if !seenOther {
		out = append(out, Other)
	}
	sort.Slice(out, func(i, j int) bool {
		if t.Self[out[i]] != t.Self[out[j]] {
			return t.Self[out[i]] > t.Self[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Write prints the table: one line per layer with its share and value.
func (t Table) Write(w io.Writer) error {
	for _, l := range t.Layers() {
		if _, err := fmt.Fprintf(w, "%-16s %7.2f%%  %14d %s\n", l, 100*t.Share(l), t.Self[l], t.Unit); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-16s %7.2f%%  %14d %s\n", "total", 100.0, t.Total, t.Unit)
	return err
}

// CumShare returns the fraction of the total spent under any frame for
// which match is true, anywhere on the stack (cumulative, not self, time).
func CumShare(p *Profile, unit string, match func(fn string) bool) float64 {
	vi := p.ValueIndex(unit)
	if vi < 0 {
		return 0
	}
	var under, total int64
	for _, s := range p.Samples {
		if vi >= len(s.Values) {
			continue
		}
		total += s.Values[vi]
		for _, fn := range s.Stack {
			if match(fn) {
				under += s.Values[vi]
				break
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(under) / float64(total)
}
