// Package scopedobs is the scoped-obs fixture: library code emits telemetry
// through the ctx-scope-aware obs helpers or Scope methods, and may not
// grab the default registry. The obs package here is the fix/obs
// stand-in; the test binds the rule to this path.
package scopedobs

import (
	"context"

	"fix/obs"
)

func Use(ctx context.Context, sc *obs.Scope) {
	obs.IncCtx(ctx, "scopedobs.good.total")
	obs.AddCtx(ctx, "scopedobs.good.bytes", 1)
	obs.ObserveCtx(ctx, "scopedobs.good.wall_ns", 1.0)
	obs.StartSpanCtx(ctx, "scopedobs.phase")
	obs.LogCtx(ctx, "scoped log lines are fine")
	obs.Probe("scopedobs.sweep").IterCtx(ctx, 7)
	sc.Inc("scopedobs.scoped.total") // Scope methods name their destination: clean
	sc.ObserveHist("scopedobs.lat_ns", 1)

	obs.Default().Inc("scopedobs.raw") // want `obs.Default\(\) outside internal/obs and CLI wiring`
}
