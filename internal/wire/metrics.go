package wire

import "repro/internal/obs"

// Transport instruments, registered in the process-global obs hub so a
// distributed run's /metrics endpoint (or dumped snapshot) reconciles
// dial churn, queue pressure and bytes-on-wire against the topology
// ledger. Names follow the repo's prometheus-style convention.
// disabledReg receives wire metrics when no global hub is installed, so
// the instruments are always live pointers and the hot path never
// branches on observability being enabled.
var disabledReg = obs.NewRegistry()

func registry() *obs.Registry {
	if h := obs.Get(); h != nil {
		return h.Registry()
	}
	return disabledReg
}

type poolMetrics struct {
	dials      *obs.Counter
	dialErrors *obs.Counter
	open       *obs.Gauge // currently open connections
}

func newPoolMetrics() *poolMetrics {
	r := registry()
	return &poolMetrics{
		dials:      r.Counter("wire_dials_total"),
		dialErrors: r.Counter("wire_dial_errors_total"),
		open:       r.Gauge("wire_conns_open"),
	}
}

type peerMetrics struct {
	framesSent *obs.Counter
	bytesSent  *obs.Counter
	retries    *obs.Counter
	resets     *obs.Counter
	queuePeak  *obs.Gauge // high-water mark of the bounded send queue
}

func newPeerMetrics() *peerMetrics {
	r := registry()
	return &peerMetrics{
		framesSent: r.Counter("wire_frames_sent_total"),
		bytesSent:  r.Counter("wire_bytes_sent_total"),
		retries:    r.Counter("wire_send_retries_total"),
		resets:     r.Counter("wire_resets_total"),
		queuePeak:  r.Gauge("wire_send_queue_peak"),
	}
}

type listenerMetrics struct {
	accepts    *obs.Counter
	framesRecv *obs.Counter
	bytesRecv  *obs.Counter
	badFrames  *obs.Counter
}

func newListenerMetrics() *listenerMetrics {
	r := registry()
	return &listenerMetrics{
		accepts:    r.Counter("wire_accepts_total"),
		framesRecv: r.Counter("wire_frames_recv_total"),
		bytesRecv:  r.Counter("wire_bytes_recv_total"),
		badFrames:  r.Counter("wire_bad_frames_total"),
	}
}
