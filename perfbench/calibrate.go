package main

import (
	"crypto/sha256"
	"encoding/binary"
	"slices"
	"time"
)

// refSeconds is the reference work's time at reference speed, about
// its median on the 2-vCPU VM the benchmark was sized on.
const refSeconds = 0.030

// calibration is a fixed piece of standard-library work — sorting and
// hashing a 1 MiB buffer — timed in the same process as the
// measurement, between the measured slices. Nothing the program under
// test does can change its cost, and it allocates nothing, so garbage
// the server leaves behind does not slow it either: only the machine's
// current speed moves it. On a shared host that speed drifts by a
// quarter or more over minutes, and every timing of a run drifts with
// it; dividing the timings by the run's reference time removes that
// drift (README.md has the measurements).
type calibration struct {
	buf   []uint32
	bytes []byte
	times []float64
}

func newCalibration() *calibration {
	return &calibration{buf: make([]uint32, 1<<18), bytes: make([]byte, 4<<18)}
}

// rounds times n units of reference work.
func (c *calibration) rounds(n int) {
	for i := 0; i < n; i++ {
		c.round()
	}
}

// round times one unit of reference work.
func (c *calibration) round() {
	start := time.Now()
	x := uint32(2463534242)
	for i := range c.buf {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		c.buf[i] = x
	}
	slices.Sort(c.buf)
	for i, v := range c.buf {
		binary.LittleEndian.PutUint32(c.bytes[4*i:], v)
	}
	sum := sha256.Sum256(c.bytes)
	c.buf[0] += uint32(sum[0]) // keep the hash live
	c.times = append(c.times, time.Since(start).Seconds())
}

// seconds is the median round time.
func (c *calibration) seconds() float64 { return median(c.times) }
