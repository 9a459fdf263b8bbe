package metricname

import "fix/obs"

// _test.go files are exempt: tests may register throwaway metric names.
func emit(sc *obs.Scope, name string) {
	sc.Inc(name)
}
