//go:build race

package oracle

// assertBounds is clear under the race detector, which slows the engine
// unevenly enough to miss a wall-clock bound on working code. The
// wall-clock tests still run every correctness check and log what they
// measure.
const assertBounds = false
