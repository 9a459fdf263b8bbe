package faultinject

import (
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"
)

// Transport wraps an http.RoundTripper and injects network faults into
// responses, deterministically by request count — the HTTP sibling of Op
// (operator faults) and File (filesystem faults), so distributed-sweep
// failure modes are testable with the same call-window idiom as solver and
// disk failures. Request numbers are 1-based; a threshold of 0 disables
// that fault; Until, when > 0, is the last request (inclusive) any fault
// fires on, modeling transient network trouble that a retry outlasts.
//
// Faults model the three ways a result upload tears in practice:
//
//   - DropFrom: the request is still delivered to the server, but the
//     response is discarded and an error returned — the ACK was lost. This
//     is the nasty half-open case: the server may have committed the work,
//     so a client that retries will double-submit, exactly what
//     last-write-wins merge semantics must absorb.
//   - DelayFrom/Delay: the response is held back Delay before returning —
//     a slow network that pushes clients into their deadline handling. A
//     request context that expires mid-delay aborts the wait: the response
//     is discarded and the context's error returned, exactly what a real
//     transport reports when the peer is too slow for the caller's
//     deadline (the server still did the work — the half-open hazard
//     again).
//   - TruncateFrom/TruncateBytes: the response body is cut after
//     TruncateBytes bytes and the read fails with ErrInjected — a torn
//     transfer mid-body.
//
// A Transport is safe for concurrent use; the zero thresholds make the
// zero value (with a Base) a transparent pass-through.
type Transport struct {
	// Base handles the real round trip. nil means http.DefaultTransport.
	Base http.RoundTripper

	DropFrom      int64         // requests ≥ DropFrom lose their response
	DelayFrom     int64         // requests ≥ DelayFrom are delayed...
	Delay         time.Duration // ...by this much (default 1ms when armed)
	TruncateFrom  int64         // requests ≥ TruncateFrom get a cut body...
	TruncateBytes int64         // ...after this many bytes (default 0: immediately)
	Until         int64         // last faulted request; 0 = forever

	calls  atomic.Int64
	faults atomic.Int64
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	n := t.calls.Add(1)
	base := t.Base
	if base == nil {
		base = http.DefaultTransport
	}
	resp, err := base.RoundTrip(req)
	if err != nil {
		return resp, err
	}
	if t.Until > 0 && n > t.Until {
		return resp, nil
	}
	if t.DelayFrom > 0 && n >= t.DelayFrom {
		d := t.Delay
		if d <= 0 {
			d = time.Millisecond
		}
		t.fault()
		timer := time.NewTimer(d)
		select {
		case <-timer.C:
		case <-req.Context().Done():
			timer.Stop()
			// The caller's deadline beat the network: it never sees the
			// response the server already produced.
			_, _ = io.Copy(io.Discard, resp.Body)
			_ = resp.Body.Close()
			return nil, fmt.Errorf("response to %s %s delayed past the caller's deadline: %w", req.Method, req.URL.Path, req.Context().Err())
		}
	}
	if t.DropFrom > 0 && n >= t.DropFrom {
		// The server already saw and handled the request; only the client's
		// view of the outcome is destroyed.
		_, _ = io.Copy(io.Discard, resp.Body)
		_ = resp.Body.Close()
		t.fault()
		return nil, fmt.Errorf("response to %s %s dropped: %w", req.Method, req.URL.Path, ErrInjected)
	}
	if t.TruncateFrom > 0 && n >= t.TruncateFrom {
		resp.Body = &truncatedBody{rc: resp.Body, remain: t.TruncateBytes}
		t.fault()
	}
	return resp, nil
}

// Calls returns how many requests the transport has carried.
func (t *Transport) Calls() int64 { return t.calls.Load() }

// Faults returns how many requests had at least one fault injected.
func (t *Transport) Faults() int64 { return t.faults.Load() }

func (t *Transport) fault() {
	t.faults.Add(1)
	process.Inc("faultinject.http_faults")
}

// truncatedBody delivers at most remain bytes of the wrapped body, then
// fails the read with ErrInjected — a transfer torn mid-body rather than
// cleanly ended, so clients see an error, not a short-but-valid response.
type truncatedBody struct {
	rc     io.ReadCloser
	remain int64
}

func (b *truncatedBody) Read(p []byte) (int, error) {
	if b.remain <= 0 {
		return 0, fmt.Errorf("response body cut: %w", ErrInjected)
	}
	if int64(len(p)) > b.remain {
		p = p[:b.remain]
	}
	n, err := b.rc.Read(p)
	b.remain -= int64(n)
	if err == io.EOF {
		// The wrapped body ended inside the allowance: nothing to tear.
		return n, err
	}
	if b.remain <= 0 && err == nil {
		err = fmt.Errorf("response body cut after %d bytes: %w", n, ErrInjected)
	}
	return n, err
}

func (b *truncatedBody) Close() error { return b.rc.Close() }
