package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// minBeyond is the number of samples a reported tail percentile must
// leave beyond it.
const minBeyond = 10

// median returns the middle of samples (the mean of the two middle
// values for an even count), or 0 for none.
func median(samples []float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	s := sortedCopy(samples)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile applies the reporting rule for latency tails: the
// wanted percentile when at least minBeyond samples lie beyond it,
// otherwise the highest percentile that still leaves minBeyond samples
// beyond it. It returns the percentile used, the sample at that
// percentile (nearest rank), and how many samples lie beyond it. ok is
// false when there are too few samples for any percentile to qualify.
func tailPercentile(samples []float64, want float64) (p, v float64, beyond int, ok bool) {
	n := len(samples)
	if n <= minBeyond {
		return 0, 0, 0, false
	}
	p = want
	if limit := 100 * float64(n-minBeyond) / float64(n); p > limit {
		p = limit
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	s := sortedCopy(samples)
	return p, s[rank-1], n - rank, true
}

// quartiles returns the first and third quartiles of samples by the
// same rule as Python's statistics.quantiles(samples, n=4) (the
// default "exclusive" method), for at least two samples.
func quartiles(samples []float64) (q1, q3 float64) {
	s := sortedCopy(samples)
	ld := len(s)
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(3)
}

// spread is the interquartile distance of samples as a share of their
// median: the steadiness figure each end-to-end bound is held to.
func spread(samples []float64) float64 {
	if len(samples) < 2 {
		return 0
	}
	med := median(samples)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(samples)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(samples []float64) []float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validName reports whether s may name a metric or workload: letters,
// digits, '_', '.' and '-', starting with a letter or digit, at most 64
// long.
func validName(s string) bool { return nameRE.MatchString(s) }

// validUnit reports whether s may be a metric's unit.
func validUnit(s string) bool { return unitRE.MatchString(s) }

// failKind classifies one operation's outcome.
type failKind int

const (
	opOK          failKind = iota
	failStatus             // the server answered with a non-200 status
	failTransport          // the request never got a decodable answer
	failCheck              // the measurement itself failed (compile error, output check)
	failMismatch           // the output differs from its baseline or its first answer
	numFailKinds
)

var failNames = [numFailKinds]string{"ok", "status", "transport", "check", "mismatch"}

// tally counts attempted and failed operations by failure kind. It is
// safe for concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int64
	kinds     [numFailKinds]int64
	notes     []string // the first few failure messages
}

// add records one operation's outcome; msg describes a failure.
func (t *tally) add(k failKind, msg string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	t.kinds[k]++
	if k != opOK && len(t.notes) < 8 {
		t.notes = append(t.notes, failNames[k]+": "+msg)
	}
}

// counts returns the attempted and failed operation counts.
func (t *tally) counts() (attempted, failed int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.attempted, t.attempted - t.kinds[opOK]
}

// failFrac is failed operations over attempted ones (0 when none were
// attempted).
func (t *tally) failFrac() float64 {
	a, f := t.counts()
	if a == 0 {
		return 0
	}
	return float64(f) / float64(a)
}

// summary renders the per-kind counts and the first failure messages.
func (t *tally) summary() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "attempted %d", t.attempted)
	for k := failStatus; k < numFailKinds; k++ {
		fmt.Fprintf(&b, ", %s %d", failNames[k], t.kinds[k])
	}
	for _, n := range t.notes {
		b.WriteString("\n  " + n)
	}
	return b.String()
}
