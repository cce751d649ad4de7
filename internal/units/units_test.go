package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"mpichgq/internal/quicktest"
)

func TestBitRateString(t *testing.T) {
	cases := []struct {
		r    BitRate
		want string
	}{
		{500 * BitPerSec, "500b/s"},
		{64 * Kbps, "64.00Kb/s"},
		{40 * Mbps, "40.00Mb/s"},
		{2500 * Kbps, "2.50Mb/s"},
		{1 * Gbps, "1.00Gb/s"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("%v.String() = %q, want %q", float64(c.r), got, c.want)
		}
	}
}

func TestByteSizeString(t *testing.T) {
	cases := []struct {
		s    ByteSize
		want string
	}{
		{100 * Byte, "100B"},
		{40 * KB, "40.00KB"},
		{5 * MB, "5.00MB"},
		{2 * GB, "2.00GB"},
	}
	for _, c := range cases {
		if got := c.s.String(); got != c.want {
			t.Errorf("String() = %q, want %q", got, c.want)
		}
	}
}

func TestTimeToSend(t *testing.T) {
	// 100 KB at 8 Mb/s: 800,000 bits / 8,000,000 b/s = 100 ms.
	got := (8 * Mbps).TimeToSend(100 * KB)
	if got != 100*time.Millisecond {
		t.Fatalf("TimeToSend = %v, want 100ms", got)
	}
}

func TestTimeToSendZeroRate(t *testing.T) {
	if d := BitRate(0).TimeToSend(MB); d != 0 {
		t.Fatalf("zero rate should send instantly, got %v", d)
	}
}

func TestBytesIn(t *testing.T) {
	// 64 Kb/s for 1 s = 8000 bytes.
	got := (64 * Kbps).BytesIn(time.Second)
	if got != 8000 {
		t.Fatalf("BytesIn = %d, want 8000", got)
	}
	if (64 * Kbps).BytesIn(-time.Second) != 0 {
		t.Fatal("negative duration should give 0 bytes")
	}
}

func TestRateOf(t *testing.T) {
	// 1 MB in 1 s = 8 Mb/s.
	got := RateOf(MB, time.Second)
	if math.Abs(float64(got)-float64(8*Mbps)) > 1 {
		t.Fatalf("RateOf = %v, want 8Mb/s", got)
	}
	if RateOf(MB, 0) != 0 {
		t.Fatal("zero duration should give 0 rate")
	}
}

func TestKbitConstant(t *testing.T) {
	if Kbit != 125 {
		t.Fatalf("Kbit = %d bytes, want 125", Kbit)
	}
	if (8 * Kbit).Bits() != 8000 {
		t.Fatalf("8 Kbit = %d bits, want 8000", (8 * Kbit).Bits())
	}
}

// TimeToSend truncates to a whole nanosecond, so the true transfer
// time lies between d and d+1ns: the rate of the transfer over d is at
// least the input rate, and over d+1ns at most. The rates are compared
// exactly, by cross-multiplying integers (size×8×1e9 is below 2^63 for
// every generated input), because RateOf's float division can miss
// the bound by an ulp. The upper end is inclusive: when the true time
// is a whole number of nanoseconds, the float quotient can fall just
// below it and truncate one nanosecond short.
func TestTimeToSendRateOfRoundTrip(t *testing.T) {
	f := func(kb uint16, mbps uint8) bool {
		if kb == 0 || mbps == 0 {
			return true
		}
		size := ByteSize(kb) * KB
		rate := BitRate(mbps) * Mbps
		d := rate.TimeToSend(size)
		bitNS := uint64(size.Bits()) * uint64(time.Second)
		r := uint64(rate)
		return uint64(d)*r <= bitNS && bitNS <= uint64(d+1)*r
	}
	if err := quick.Check(f, quicktest.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
}

// BytesIn is monotone in duration.
func TestBytesInMonotone(t *testing.T) {
	f := func(a, b uint32) bool {
		r := 10 * Mbps
		da := time.Duration(a) * time.Microsecond
		db := time.Duration(b) * time.Microsecond
		if da > db {
			da, db = db, da
		}
		return r.BytesIn(da) <= r.BytesIn(db)
	}
	if err := quick.Check(f, quicktest.Config(t, 0)); err != nil {
		t.Fatal(err)
	}
}
