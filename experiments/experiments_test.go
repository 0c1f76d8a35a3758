package experiments

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// smoke is a tiny scale so each experiment runs in well under a
// second; correctness of shapes is still asserted where cheap.
const smoke = Scale(0.02)

func findRow(t *testing.T, tb Table, prefix string) []string {
	t.Helper()
	for _, r := range tb.Rows {
		if strings.HasPrefix(r[0], prefix) {
			return r
		}
	}
	t.Fatalf("%s: no row starting with %q in %v", tb.ID, prefix, tb.Rows)
	return nil
}

func atoi(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestRegistryCompleteAndOrdered(t *testing.T) {
	reg := Registry()
	if len(reg) != 19 {
		t.Fatalf("registry has %d experiments, want 19", len(reg))
	}
	for i, r := range reg {
		want := "E" + pad2(i+1)
		if r.ID != want {
			t.Fatalf("registry[%d] = %s, want %s", i, r.ID, want)
		}
	}
}

func pad2(n int) string {
	if n < 10 {
		return "0" + strconv.Itoa(n)
	}
	return strconv.Itoa(n)
}

func TestTableFormatting(t *testing.T) {
	tb := Table{ID: "EX", Title: "demo", Header: []string{"a", "bb"}}
	tb.Add("x", 42)
	tb.Add(1.5, time.Millisecond)
	tb.Note("hello %d", 7)
	s := tb.String()
	for _, want := range []string{"EX — demo", "a", "bb", "42", "1.50", "1ms", "note: hello 7"} {
		if !strings.Contains(s, want) {
			t.Fatalf("formatted table missing %q:\n%s", want, s)
		}
	}
}

func TestScaleFloor(t *testing.T) {
	if Scale(0.0001).N(1000) != 50 {
		t.Fatal("scale floor not applied")
	}
	if Scale(2).N(1000) != 2000 {
		t.Fatal("scale multiply wrong")
	}
}

func TestE01ThroughputShapes(t *testing.T) {
	tb := E01Throughput(smoke)
	if len(tb.Rows) != 3 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	for _, r := range tb.Rows {
		if atoi(t, r[3]) <= 0 {
			t.Fatalf("nonpositive rate: %v", r)
		}
	}
}

func TestE02LatencyUnderBound(t *testing.T) {
	tb := E02Latency(smoke)
	for _, r := range tb.Rows {
		if r[6] != "true" {
			t.Fatalf("latency bound violated: %v", r)
		}
	}
}

func TestE03BalanceReasonable(t *testing.T) {
	tb := E03MachineScaling(smoke)
	if len(tb.Rows) != 5 {
		t.Fatalf("rows = %d", len(tb.Rows))
	}
	// At 16 machines the busiest machine should not exceed 4x the mean.
	last := tb.Rows[len(tb.Rows)-1]
	if atoi(t, last[4]) > 4 {
		t.Fatalf("load too imbalanced: %v", last)
	}
}

func TestE04Engine2NotSlower(t *testing.T) {
	// Run at a slightly larger scale so the comparison is stable; allow
	// generous slack — the claim tested is "2.0 is not dramatically
	// slower", the full-scale `go run ./cmd/mupbench` shows the real gap.
	if raceEnabled {
		t.Skip("wall-clock engine comparison is not meaningful under the race detector")
	}
	tb := E04Engine1vs2(Scale(0.05))
	speed := atoi(t, tb.Rows[1][4])
	if speed < 0.5 {
		t.Fatalf("engine 2.0 speedup = %.2f, implausibly slow", speed)
	}
}

func TestE05CentralCacheFewerLoads(t *testing.T) {
	tb := E05CacheWorkingSet(Scale(0.2))
	disparate := atoi(t, findRow(t, tb, "1.0: 5 workers x 20")[2])
	central := atoi(t, findRow(t, tb, "2.0: central")[2])
	if central >= disparate {
		t.Fatalf("central cache loads %v >= disparate %v; §4.5 shape violated", central, disparate)
	}
}

func TestE06ContentionBounded(t *testing.T) {
	tb := E06HotspotDualQueue(smoke)
	for _, r := range tb.Rows {
		c := atoi(t, r[4])
		if r[1] == "single-queue" && c > 1 {
			t.Fatalf("single-queue contention %v > 1", c)
		}
		if c > 2 {
			t.Fatalf("contention %v exceeds 2: %v", c, r)
		}
	}
}

func TestE07SplitsStayExact(t *testing.T) {
	tb := E07KeySplitting(smoke)
	for _, r := range tb.Rows {
		if r[2] != "true" {
			t.Fatalf("split lost counts: %v", r)
		}
	}
}

func TestE08HDDSlowerThanSSD(t *testing.T) {
	tb := E08SSDvsHDD(smoke)
	ssd := findRow(t, tb, "ssd")
	hdd := findRow(t, tb, "hdd")
	ssdBusy, err1 := time.ParseDuration(ssd[3])
	hddBusy, err2 := time.ParseDuration(hdd[3])
	if err1 != nil || err2 != nil {
		t.Fatalf("parse busy times: %v %v", err1, err2)
	}
	if hddBusy < 10*ssdBusy {
		t.Fatalf("HDD cold reads (%v) should be >=10x SSD (%v)", hddBusy, ssdBusy)
	}
}

func TestE09WriteThroughSavesMostLosesLeast(t *testing.T) {
	tb := E09FlushPolicy(smoke)
	wt := findRow(t, tb, "write-through")
	iv := findRow(t, tb, "interval")
	ev := findRow(t, tb, "on-evict")
	if atoi(t, wt[4]) != 0 {
		t.Fatalf("write-through lost dirty slates: %v", wt)
	}
	if atoi(t, ev[2]) > atoi(t, wt[2]) {
		t.Fatalf("on-evict wrote more than write-through: %v vs %v", ev, wt)
	}
	if atoi(t, iv[2]) == 0 {
		t.Fatalf("interval flusher never wrote: %v", iv)
	}
	if atoi(t, iv[4]) > atoi(t, ev[4]) {
		t.Fatalf("interval lost more than on-evict: %v vs %v", iv, ev)
	}
}

func TestE10QuorumLatencyOrdering(t *testing.T) {
	tb := E10Quorum(smoke)
	var lat []time.Duration
	for _, r := range tb.Rows {
		d, err := time.ParseDuration(r[2])
		if err != nil {
			t.Fatal(err)
		}
		lat = append(lat, d)
	}
	if !(lat[0] <= lat[1] && lat[1] <= lat[2]) {
		t.Fatalf("latency ordering ONE<=QUORUM<=ALL violated: %v", lat)
	}
}

func TestE11TTLBoundsStorage(t *testing.T) {
	tb := E11TTL(smoke)
	forever := atoi(t, findRow(t, tb, "forever")[3])
	day := atoi(t, findRow(t, tb, "24h")[3])
	if day >= forever {
		t.Fatalf("TTL did not bound storage: %v vs %v", day, forever)
	}
}

func TestE12DetectionFast(t *testing.T) {
	tb := E12Failure(smoke)
	onSend := findRow(t, tb, "on-send")
	d, err := time.ParseDuration(onSend[1])
	if err != nil {
		t.Fatal(err)
	}
	if d < 0 || d > 2*time.Second {
		t.Fatalf("on-send detection latency %v out of range", d)
	}
	if onSend[4] != "true" {
		t.Fatalf("failover left slates broken: %v", onSend)
	}
}

func TestE13ThrottleLosesNothing(t *testing.T) {
	tb := E13Overflow(smoke)
	throttle := findRow(t, tb, "source throttling")
	if atoi(t, throttle[4]) != 0 {
		t.Fatalf("throttling lost events: %v", throttle)
	}
	divert := findRow(t, tb, "overflow stream")
	if atoi(t, divert[3]) == 0 {
		t.Fatalf("overflow stream processed nothing degraded: %v", divert)
	}
}

func TestE14EnginesMatchReference(t *testing.T) {
	tb := E14Retailer(smoke)
	for _, r := range tb.Rows {
		if r[3] != "true" {
			t.Fatalf("engine diverged from reference: %v", r)
		}
	}
}

func TestE15BurstDetectedUniformQuiet(t *testing.T) {
	tb := E15HotTopics(Scale(0.4))
	burst := findRow(t, tb, "planted")
	if burst[2] != "true" {
		t.Fatalf("planted burst missed: %v", burst)
	}
}

func TestE16MicroBatchLatencyDominates(t *testing.T) {
	tb := E16VsMicroBatch(smoke)
	mup := tb.Rows[0]
	mb1s := findRow(t, tb, "micro-batch 1s")
	mupMean, err1 := time.ParseDuration(mup[1])
	mbMean, err2 := time.ParseDuration(mb1s[1])
	if err1 != nil || err2 != nil {
		t.Fatalf("parse: %v %v", err1, err2)
	}
	if mbMean < 10*mupMean {
		t.Fatalf("micro-batch latency (%v) should dwarf Muppet's (%v)", mbMean, mupMean)
	}
	for _, r := range tb.Rows {
		if r[3] != "true" {
			t.Fatalf("counts wrong: %v", r)
		}
	}
}

func TestE18ReplayRecoversBacklog(t *testing.T) {
	tb := E18Replay(Scale(0.2))
	stock := findRow(t, tb, "stock")
	replay := findRow(t, tb, "replay")
	if atoi(t, replay[2]) > atoi(t, stock[2]) {
		t.Fatalf("replay deficit %v exceeds stock deficit %v", replay[2], stock[2])
	}
	if atoi(t, replay[4]) < 0 {
		t.Fatalf("negative replays: %v", replay)
	}
}

func TestE17BigSlatesSlower(t *testing.T) {
	tb := E17SlateSize(smoke)
	small := atoi(t, tb.Rows[0][2])
	big := atoi(t, tb.Rows[len(tb.Rows)-1][2])
	if big >= small {
		t.Fatalf("1MB slates (%v ev/s) not slower than 100B (%v ev/s)", big, small)
	}
}
