//go:build !race

package oracle

// assertBounds is set outside the race detector: the wall-clock tests
// (TestScaleOverlap, TestServeLoad, TestWorkloadFloor) fail a cell that
// misses its throughput or latency bound.
const assertBounds = true
