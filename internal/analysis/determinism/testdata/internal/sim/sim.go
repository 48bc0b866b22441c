// Package sim is determinism-analyzer testdata mirroring the path
// shape of the real replay-critical packages.
package sim

import (
	"math/rand"
	"time"
)

// WallClock exercises the forbidden time reads.
func WallClock() int64 {
	t := time.Now()     // want `time\.Now reads the wall clock`
	d := time.Since(t)  // want `time\.Since reads the wall clock`
	_ = time.Unix(0, 0) // constructors are fine
	return int64(d)
}

// GlobalRand exercises the global math/rand source.
func GlobalRand() int {
	n := rand.Intn(8)                  // want `rand\.Intn draws from the global math/rand source`
	rand.Shuffle(n, func(i, j int) {}) // want `rand\.Shuffle draws from the global math/rand source`
	return n
}

// SeededRand is the sanctioned pattern: an explicit per-run stream.
func SeededRand(seed int64) int {
	rng := rand.New(rand.NewSource(seed))
	return rng.Intn(8)
}

// MapRanges exercises unordered iteration.
func MapRanges(m map[int]int) int {
	sum := 0
	for _, v := range m { // want `range over map\[int\]int iterates in randomized order`
		sum += v
	}
	//nocvet:ordered summation is commutative
	for _, v := range m {
		sum += v
	}
	for _, v := range m { //nocvet:ordered same-line waiver
		sum += v
	}
	keys := []int{1, 2, 3}
	for _, k := range keys { // slices iterate in order
		sum += m[k]
	}
	return sum
}
