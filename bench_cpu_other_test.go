//go:build !linux && !darwin

package quake_test

import "time"

// cpuTime is unknown here: benchmarks then omit their CPU metrics.
func cpuTime() time.Duration { return 0 }
