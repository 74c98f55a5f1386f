package layers

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

// pb is a minimal protobuf writer for building test profiles.
type pb []byte

func (b pb) varint(field int, v uint64) pb {
	b = binary.AppendUvarint(b, uint64(field<<3))
	return binary.AppendUvarint(b, v)
}

func (b pb) bytes(field int, data []byte) pb {
	b = binary.AppendUvarint(b, uint64(field<<3|2))
	b = binary.AppendUvarint(b, uint64(len(data)))
	return append(b, data...)
}

func (b pb) packed(field int, vs ...uint64) pb {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return b.bytes(field, inner)
}

// buildProfile encodes samples (stack leaf first, one cpu-nanoseconds value
// each) as a gzipped profile.proto, giving every frame its own location,
// and an inlined pair as one location with two lines.
func buildProfile(samples []struct {
	stack []string
	ns    int64
}) []byte {
	strs := []string{""}
	idx := map[string]uint64{}
	str := func(s string) uint64 {
		if i, ok := idx[s]; ok {
			return i
		}
		idx[s] = uint64(len(strs))
		strs = append(strs, s)
		return idx[s]
	}
	var p pb
	p = p.bytes(1, pb(nil).varint(1, str("samples")).varint(2, str("count")))
	p = p.bytes(1, pb(nil).varint(1, str("cpu")).varint(2, str("nanoseconds")))
	fnID := map[string]uint64{}
	for _, s := range samples {
		var locs []uint64
		for _, fn := range s.stack {
			id, ok := fnID[fn]
			if !ok {
				id = uint64(len(fnID) + 1)
				fnID[fn] = id
				p = p.bytes(5, pb(nil).varint(1, id).varint(2, str(fn)))
				p = p.bytes(4, pb(nil).varint(1, id).bytes(4, pb(nil).varint(1, id)))
			}
			locs = append(locs, id)
		}
		smp := pb(nil)
		if len(locs) > 2 {
			smp = smp.packed(1, locs...)
		} else {
			for _, l := range locs {
				smp = smp.varint(1, l)
			}
		}
		p = p.bytes(2, smp.packed(2, 1, uint64(s.ns)))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p)
	zw.Close()
	return buf.Bytes()
}

func TestFoldChargesLeafLayer(t *testing.T) {
	data := buildProfile([]struct {
		stack []string
		ns    int64
	}{
		{[]string{"macaw/internal/sim.(*Simulator).siftDown", "macaw/internal/sim.(*Simulator).Run"}, 50},
		// A runtime helper is charged to its caller's layer.
		{[]string{"runtime.memmove", "macaw/internal/phy.(*Medium).startTx", "macaw/internal/sim.(*Simulator).Run"}, 20},
		// Allocation is gc, whoever asked for it.
		{[]string{"runtime.memclrNoHeapPointers", "runtime.mallocgc", "macaw/internal/core.(*Station).SendSegment"}, 10},
		{[]string{"macaw/internal/mac/dcf.(*DCF).onTimer", "macaw/internal/sim.(*Simulator).Run"}, 8},
		{[]string{"macaw/internal/mac.(*Env).Send", "macaw/internal/mac/macaw.(*MAC).sendRTS"}, 4},
		{[]string{"reflect.Value.Field", "encoding/gob.(*Encoder).encodeStruct"}, 3},
		// An unmapped package shows as other; helpers above it do not hide it.
		{[]string{"sort.insertionSort", "example.com/hot.Spin", "macaw/internal/sim.(*Simulator).Run"}, 3},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, 1},
		// Unqualified assembly names are runtime: a write barrier is gc.
		{[]string{"gcWriteBarrier", "macaw/internal/sim.(*Simulator).siftDown"}, 1},
	})
	p, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Samples) != 9 || p.ValueIndex("nanoseconds") != 1 {
		t.Fatalf("parsed %d samples, types %v", len(p.Samples), p.Types)
	}
	tab, err := Fold(p, "nanoseconds")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]int64{"sim": 50, "phy": 20, "gc": 11, "mac.dcf": 8, "mac.common": 4, "gob": 3, Other: 3, Runtime: 1}
	for l, v := range want {
		if tab.Self[l] != v {
			t.Errorf("layer %s = %d, want %d (table %v)", l, tab.Self[l], v, tab.Self)
		}
	}
	if tab.Total != 100 || len(tab.Self) != len(want) {
		t.Fatalf("total %d over %d layers, want 100 over %d", tab.Total, len(tab.Self), len(want))
	}
	var sum float64
	for _, l := range tab.Layers() {
		sum += tab.Share(l)
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares sum to %v", sum)
	}
	if got := tab.PrefixShare("mac"); math.Abs(got-0.12) > 1e-12 {
		t.Fatalf("mac prefix share = %v, want 0.12", got)
	}
	under := CumShare(p, "nanoseconds", func(fn string) bool { return strings.HasSuffix(fn, ".Run") })
	if math.Abs(under-0.81) > 1e-12 {
		t.Fatalf("cumulative share under Run = %v, want 0.81", under)
	}
	var out strings.Builder
	if err := tab.Write(&out); err != nil || !strings.Contains(out.String(), "other") {
		t.Fatalf("table text %q (%v) lacks the other bucket", out.String(), err)
	}
}

func TestOtherBucketAlwaysListed(t *testing.T) {
	tab := Table{Unit: "nanoseconds", Total: 5, Self: map[string]int64{"sim": 5}}
	if ls := tab.Layers(); len(ls) != 2 || ls[0] != "sim" || ls[1] != Other {
		t.Fatalf("layers = %v, want [sim other]", ls)
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"macaw/internal/mac/dcf.(*DCF).onTimer":          "macaw/internal/mac/dcf",
		"runtime.mallocgc":                               "runtime",
		"encoding/gob.(*Encoder).Encode":                 "encoding/gob",
		"macaw/internal/experiments.goFuture[...].func1": "macaw/internal/experiments",
		"main.main": "main",
	} {
		if got := PackageOf(fn); got != want {
			t.Errorf("PackageOf(%q) = %q, want %q", fn, got, want)
		}
	}
	if l, _ := layerOfPackage("macaw/internal/macfoo"); l == "mac.common" {
		t.Fatal("a prefix must match whole path elements")
	}
}

func TestParseRealCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	deadline := time.Now().Add(300 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	pprof.StopCPUProfile()
	p, err := Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	tab, err := Fold(p, "nanoseconds")
	if err != nil {
		t.Fatal(err)
	}
	if tab.Total <= 0 {
		t.Skip("no samples landed in 300ms")
	}
	var sum float64
	for _, l := range tab.Layers() {
		sum += tab.Share(l)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v", sum)
	}
}

func TestParseRejectsTruncated(t *testing.T) {
	if _, err := Parse([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Fatal("a truncated message parsed")
	}
}
