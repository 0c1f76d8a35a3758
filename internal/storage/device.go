// Package storage models block storage devices with explicit seek and
// transfer costs. Section 4.2 of the paper argues for running the slate
// store on SSDs: cold-start slate fetches and compactions need random-
// seek I/O capacity that spinning disks cannot sustain. We do not have
// the paper's hardware, so the device is simulated: every read and
// write is charged a latency from a seek+bandwidth cost model, and the
// accumulated simulated busy time is what experiment E8 reports. The
// substitution preserves the property the argument relies on — random
// reads on an HDD pay a large per-operation seek penalty that an SSD
// does not.
package storage

import (
	"sync"
	"time"
)

// Profile describes a device's cost model.
type Profile struct {
	// Name labels the profile in bench output ("ssd", "hdd").
	Name string
	// SeekLatency is charged once per I/O operation. It models head
	// movement plus rotational delay on HDDs and flash translation
	// overhead on SSDs.
	SeekLatency time.Duration
	// ReadBandwidth and WriteBandwidth are sequential transfer rates in
	// bytes per second.
	ReadBandwidth  int64
	WriteBandwidth int64
}

// SSD returns a cost profile typical of the 2012-era SATA flash drives
// the paper deployed: ~100µs access, several hundred MB/s transfer.
func SSD() Profile {
	return Profile{
		Name:           "ssd",
		SeekLatency:    100 * time.Microsecond,
		ReadBandwidth:  500 << 20,
		WriteBandwidth: 300 << 20,
	}
}

// HDD returns a cost profile for a 7200rpm SATA disk: ~8ms average
// seek+rotate, ~150MB/s sequential transfer.
func HDD() Profile {
	return Profile{
		Name:           "hdd",
		SeekLatency:    8 * time.Millisecond,
		ReadBandwidth:  150 << 20,
		WriteBandwidth: 150 << 20,
	}
}

// Device is a simulated block device. All methods are safe for
// concurrent use. The device does not hold data — the key-value store
// keeps bytes in ordinary memory — it only accounts for the time the
// hardware would have spent.
type Device struct {
	profile Profile

	mu        sync.Mutex
	readOps   uint64
	writeOps  uint64
	readByte  int64
	writeByte int64
	busy      time.Duration
}

// NewDevice returns a device with the given cost profile.
func NewDevice(p Profile) *Device {
	return &Device{profile: p}
}

// Profile returns the device's cost profile.
func (d *Device) Profile() Profile { return d.profile }

func transferTime(n int64, bw int64) time.Duration {
	if bw <= 0 {
		return 0
	}
	return time.Duration(float64(n) / float64(bw) * float64(time.Second))
}

// Read charges the device for one random read of n bytes and returns
// the simulated duration of the operation.
func (d *Device) Read(n int64) time.Duration {
	cost := d.profile.SeekLatency + transferTime(n, d.profile.ReadBandwidth)
	d.mu.Lock()
	d.readOps++
	d.readByte += n
	d.busy += cost
	d.mu.Unlock()
	return cost
}

// Write charges the device for one write of n bytes and returns the
// simulated duration.
func (d *Device) Write(n int64) time.Duration {
	cost := d.profile.SeekLatency + transferTime(n, d.profile.WriteBandwidth)
	d.mu.Lock()
	d.writeOps++
	d.writeByte += n
	d.busy += cost
	d.mu.Unlock()
	return cost
}

// SequentialWrite charges a seek only once per call regardless of size;
// memtable flushes and compactions are large sequential writes, which
// is exactly why an LSM store tolerates HDDs for writes but not for
// random reads.
func (d *Device) SequentialWrite(n int64) time.Duration {
	return d.Write(n)
}

// Stats is a snapshot of device accounting.
type Stats struct {
	ReadOps     uint64        `metric:"muppet_device_read_ops_total" help:"Simulated device read operations."`
	WriteOps    uint64        `metric:"muppet_device_write_ops_total" help:"Simulated device write operations."`
	ReadBytes   int64         `metric:"muppet_device_read_bytes_total" help:"Simulated device bytes read."`
	WriteBytes  int64         `metric:"muppet_device_write_bytes_total" help:"Simulated device bytes written."`
	BusyTime    time.Duration `metric:"muppet_device_busy_seconds" help:"Accumulated simulated device busy time."`
	ProfileName string
}

// Stats returns the device's accumulated accounting.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return Stats{
		ReadOps:     d.readOps,
		WriteOps:    d.writeOps,
		ReadBytes:   d.readByte,
		WriteBytes:  d.writeByte,
		BusyTime:    d.busy,
		ProfileName: d.profile.Name,
	}
}

// Reset zeroes the accounting counters.
func (d *Device) Reset() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.readOps, d.writeOps, d.readByte, d.writeByte, d.busy = 0, 0, 0, 0, 0
}
