package bloom

import (
	"bytes"
	"fmt"
	"testing"
	"testing/quick"
)

func TestNoFalseNegatives(t *testing.T) {
	f := New(1000, 0.01)
	for i := 0; i < 1000; i++ {
		f.Add(fmt.Sprintf("key-%d", i))
	}
	for i := 0; i < 1000; i++ {
		if !f.MayContain(fmt.Sprintf("key-%d", i)) {
			t.Fatalf("false negative for key-%d", i)
		}
	}
}

func TestFalsePositiveRateReasonable(t *testing.T) {
	f := New(10_000, 0.01)
	for i := 0; i < 10_000; i++ {
		f.Add(fmt.Sprintf("present-%d", i))
	}
	fp := 0
	const probes = 10_000
	for i := 0; i < probes; i++ {
		if f.MayContain(fmt.Sprintf("absent-%d", i)) {
			fp++
		}
	}
	rate := float64(fp) / probes
	if rate > 0.05 {
		t.Fatalf("false positive rate %.4f way above target 0.01", rate)
	}
}

func TestEmptyFilterContainsNothing(t *testing.T) {
	f := New(100, 0.01)
	if f.MayContain("anything") {
		t.Fatal("empty filter claimed membership")
	}
}

func TestDegenerateParameters(t *testing.T) {
	f := New(0, -1)
	f.Add("k")
	if !f.MayContain("k") {
		t.Fatal("filter with clamped params lost a key")
	}
}

func TestPropertyAddedAlwaysFound(t *testing.T) {
	f := New(500, 0.01)
	err := quick.Check(func(key string) bool {
		f.Add(key)
		return f.MayContain(key)
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, n := range []int{1, 10, 1000, 50_000} {
		f := New(n, 0.01)
		for i := 0; i < n; i++ {
			f.Add(fmt.Sprintf("key-%d", i))
		}
		data := f.Marshal()
		if len(data) != f.MarshaledSize() {
			t.Fatalf("n=%d: Marshal wrote %d bytes, MarshaledSize says %d", n, len(data), f.MarshaledSize())
		}
		g, err := Unmarshal(data)
		if err != nil {
			t.Fatalf("n=%d: Unmarshal: %v", n, err)
		}
		// The round-tripped filter must answer identically: every added
		// key still present, and absent-key probes agree bit for bit.
		for i := 0; i < n; i++ {
			if !g.MayContain(fmt.Sprintf("key-%d", i)) {
				t.Fatalf("n=%d: round-trip lost key-%d", n, i)
			}
		}
		for i := 0; i < 1000; i++ {
			k := fmt.Sprintf("absent-%d", i)
			if f.MayContain(k) != g.MayContain(k) {
				t.Fatalf("n=%d: round-trip changed the answer for %q", n, k)
			}
		}
	}
}

func TestAppendMarshalReusesBuffer(t *testing.T) {
	f := New(100, 0.01)
	f.Add("k")
	buf := make([]byte, 0, f.MarshaledSize()+16)
	out := f.AppendMarshal(buf)
	if &out[0] != &buf[:1][0] {
		t.Fatal("AppendMarshal reallocated despite sufficient capacity")
	}
	if _, err := Unmarshal(out); err != nil {
		t.Fatalf("Unmarshal(AppendMarshal(...)): %v", err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	f := New(100, 0.01)
	f.Add("k")
	good := f.Marshal()
	cases := map[string][]byte{
		"empty":          nil,
		"short header":   good[:marshalHeader-1],
		"bad version":    append([]byte{marshalVersion + 1}, good[1:]...),
		"zero hashes":    append([]byte{marshalVersion, 0}, good[2:]...),
		"truncated bits": good[:len(good)-8],
		"trailing bytes": append(append([]byte(nil), good...), 0xAA),
		"zero bit count": append([]byte{marshalVersion, 1, 0, 0, 0, 0, 0, 0, 0, 0}, good[marshalHeader:]...),
		// 2^64-1 bits rounds up to zero words if the sum wraps.
		"wrapping bit count": {marshalVersion, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff},
	}
	for name, data := range cases {
		if _, err := Unmarshal(data); err == nil {
			t.Errorf("%s: Unmarshal accepted corrupt input", name)
		}
	}
}

// FuzzBloomUnmarshal: Unmarshal never panics, and whatever it accepts
// is exactly one serialized filter — it re-marshals to the same bytes —
// that MayContain can probe.
func FuzzBloomUnmarshal(f *testing.F) {
	filter := New(100, 0.01)
	filter.Add("k")
	good := filter.Marshal()
	f.Add(good)
	f.Add(good[:marshalHeader-1])                                                          // short header
	f.Add(append([]byte{marshalVersion + 1}, good[1:]...))                                 // bad version
	f.Add(append([]byte{marshalVersion, 17}, good[2:]...))                                 // too many hashes
	f.Add([]byte{marshalVersion, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})       // bits cannot fit
	f.Add(append(append([]byte(nil), good...), 0xAA))                                      // trailing byte
	f.Add([]byte{marshalVersion, 3, 1, 0, 0, 0, 0, 0, 0, 0, 0xff, 0, 0, 0, 0, 0, 0, 0x80}) // one bit, junk above it
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Unmarshal(data)
		if err != nil {
			return
		}
		if out := g.Marshal(); !bytes.Equal(out, data) {
			t.Fatalf("Unmarshal accepted %x, which re-marshals to %x", data, out)
		}
		for _, k := range []string{"", "k", "key-1", string(data)} {
			g.MayContain(k)
		}
	})
}
