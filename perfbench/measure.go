package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// mean returns the arithmetic mean of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// maxOf returns the largest value of xs; 0 for an empty slice.
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// sum adds up xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// timer collects the durations of repeated calls of one function.
type timer []float64

// add records one call's duration in seconds.
func (t *timer) add(d time.Duration) { *t = append(*t, d.Seconds()) }

// since records the time elapsed since start and returns it.
func (t *timer) since(start time.Time) time.Duration {
	d := time.Since(start)
	t.add(d)
	return d
}

// median returns the median call duration in seconds.
func (t timer) median() float64 { return median(t) }

// deriveSeed maps (seed, stream) to an independent seed with the
// SplitMix64 finalizer, so a run's calls and jobs each get their own
// reproducible input stream.
func deriveSeed(seed int64, stream uint64) int64 {
	z := uint64(seed) + (stream+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// digest hashes statistical outputs bit for bit: two runs that report the
// same digest produced identical floating-point results.
type digest struct{ buf []byte }

// floats appends the exact bits of xs.
func (d *digest) floats(xs ...float64) {
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(x))
	}
}

// ints appends integers.
func (d *digest) ints(xs ...int) {
	for _, x := range xs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, uint64(x))
	}
}

// bytes appends raw bytes.
func (d *digest) bytes(b []byte) { d.buf = append(d.buf, b...) }

// sum returns the hex SHA-256 of everything appended.
func (d *digest) sum() string {
	h := sha256.Sum256(d.buf)
	return hex.EncodeToString(h[:])
}

// rssSampler measures the peak resident set of the process while a
// workload's measured loop runs: the median, over the loop's one-second
// windows, of the largest resident set sampled in each window, so a
// single garbage-collection spike does not set the figure. Starting it
// first returns set-up garbage to the operating system, so the peak
// belongs to the loop.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	windows []float64 // largest resident set of each finished window, bytes
	cur     int64     // largest resident set of the current window, bytes
	end     time.Time // end of the current window
	err     error
}

func startRSS() *rssSampler {
	debug.FreeOSMemory()
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{}), end: time.Now().Add(time.Second)}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			s.sample()
			select {
			case <-s.stop:
				s.sample()
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// sample reads the current resident set from /proc/self/statm.
func (s *rssSampler) sample() {
	buf, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		s.err = err
		return
	}
	f := strings.Fields(string(buf))
	if len(f) < 2 {
		s.err = fmt.Errorf("unexpected /proc/self/statm: %q", buf)
		return
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		s.err = err
		return
	}
	if now := time.Now(); now.After(s.end) {
		s.windows = append(s.windows, float64(s.cur))
		s.cur = 0
		s.end = now.Add(time.Second)
	}
	if b := pages * int64(os.Getpagesize()); b > s.cur {
		s.cur = b
	}
}

// stopMB stops the sampler and returns the peak in MB.
func (s *rssSampler) stopMB() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, fmt.Errorf("sampling resident memory: %w", s.err)
	}
	return median(append(s.windows, float64(s.cur))) / (1 << 20), nil
}
