// Package server hosts the scheduling engine as a long-running daemon:
// a sim.Live session advanced by a wall-clock ticker mapped through a
// configurable speedup, fronted by the JSON HTTP API in http.go.
//
// Virtual time runs as vnow = vbase + speedup × wall-elapsed. A finite
// speedup replays at that acceleration (1 = real time); Speedup = +Inf
// (or ≤ 0) selects batch semantics: the clock only moves when events
// are processed, submissions carry explicit submit times, and Drain
// runs the session to quiescence — reproducing sim.Run byte for byte
// (see TestDaemonBatchEquivalence).
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"os"
	"path/filepath"
	"sync"
	"time"

	"amjs/internal/job"
	"amjs/internal/machine"
	"amjs/internal/sched"
	"amjs/internal/sim"
	"amjs/internal/units"
	"amjs/internal/whatif"
)

// Config configures a Daemon.
type Config struct {
	// Machine and Scheduler are handed to the engine, which clones them.
	Machine   machine.Machine
	Scheduler sched.Scheduler

	// CheckInterval and SchedulePeriod have sim.Config semantics
	// (checkpoint period C_i, and periodic-tick vs event-driven
	// scheduling).
	CheckInterval  units.Duration
	SchedulePeriod units.Duration

	// Speedup is the virtual seconds elapsed per wall second. +Inf or
	// any value ≤ 0 selects batch (∞) mode.
	Speedup float64

	// Tick is the wall-clock granularity at which the virtual clock is
	// advanced in finite-speedup mode. Defaults to 100ms.
	Tick time.Duration

	// CheckpointPath, when set, is read at startup (pending jobs are
	// requeued) and written on Close.
	CheckpointPath string

	// Lean bounds the collector's memory for indefinitely long sessions
	// (see metrics.Collector.SetLean). Leave off for tests and short
	// replays that want full checkpoint series.
	Lean bool

	// Paranoid arms the engine's schedule-validity oracle
	// (sim.Config.Paranoid): every Drain re-audits the session's full
	// event history.
	Paranoid bool

	// IngestShards is the number of sharded admission lanes (hashed by
	// submitting user) the batch path stages into. Defaults to 8.
	IngestShards int

	// IngestQueue bounds each lane's staged-submission count; a full
	// lane fails items with ErrOverloaded. Defaults to 4096.
	IngestQueue int

	// MaxBatch caps the item count of one POST /v1/jobs array
	// (oversized batches get 413). Defaults to 4096.
	MaxBatch int

	// EventRing is the per-subscriber buffer of the /v1/events feed;
	// a consumer further behind loses its oldest events. Defaults to
	// 1024.
	EventRing int

	// Trace is passed through to the engine (one line per event).
	Trace io.Writer

	// Logger receives structured daemon logs. Defaults to slog.Default.
	Logger *slog.Logger
}

// ErrClosed reports an operation on a daemon after Close.
var ErrClosed = errors.New("server: daemon closed")

// Ingest-path defaults (see Config).
const (
	defaultIngestShards = 8
	defaultIngestQueue  = 4096
	// DefaultMaxBatch is the default POST /v1/jobs array-item cap.
	DefaultMaxBatch = 4096
)

// ErrNotCancellable reports a cancel of a job that already started.
var ErrNotCancellable = errors.New("server: job already started or finished")

// ErrUnknownJob reports a lookup of an ID the daemon never issued.
var ErrUnknownJob = errors.New("server: unknown job")

// Daemon is one running scheduler instance. All methods are safe for
// concurrent use; a single mutex serializes access to the Live session.
type Daemon struct {
	cfg Config
	log *slog.Logger
	inf bool

	mu      sync.Mutex
	live    *sim.Live
	nextID  int
	closed  bool
	closing bool // Close in progress: ingest winding down, engine still open

	// predicted is the optimistic start estimate recorded at each job's
	// admission, by job ID; -1 means no prediction.
	predicted job.IDTable[units.Time]

	lanes *lanes    // sharded batch-admission front end
	hub   *eventHub // /v1/events fan-out

	// Virtual-clock anchor for finite speedups: vnow = vbase +
	// Speedup × (wall - wallBase).
	vbase    units.Time
	wallBase time.Time

	stop chan struct{}
	done chan struct{}
}

// SubmitRequest is the wire form of a job submission.
type SubmitRequest struct {
	User        string `json:"user"`
	Nodes       int    `json:"nodes"`
	WalltimeSec int64  `json:"walltime_sec"`
	// RuntimeSec is the job's actual runtime, known to the simulator
	// but hidden from the scheduler. Defaults to WalltimeSec.
	RuntimeSec int64 `json:"runtime_sec,omitempty"`
	// SubmitSec is honored only in batch (∞) mode, where the caller
	// owns the virtual clock; finite-speedup mode stamps the current
	// virtual time.
	SubmitSec *int64 `json:"submit_sec,omitempty"`
}

// JobStatus is the wire form of a job's state.
type JobStatus struct {
	ID          int    `json:"id"`
	User        string `json:"user,omitempty"`
	Nodes       int    `json:"nodes"`
	WalltimeSec int64  `json:"walltime_sec"`
	State       string `json:"state"`
	SubmitSec   int64  `json:"submit_sec"`
	// PredictedStartSec is the optimistic start estimate recorded at
	// submission; StartSec and EndSec are the actuals once known.
	PredictedStartSec *int64 `json:"predicted_start_sec,omitempty"`
	StartSec          *int64 `json:"start_sec,omitempty"`
	EndSec            *int64 `json:"end_sec,omitempty"`
	WaitSec           *int64 `json:"wait_sec,omitempty"`
}

// MachineStatus is the wire form of GET /v1/machine.
type MachineStatus struct {
	Name        string   `json:"name"`
	Policy      string   `json:"policy"`
	TotalNodes  int      `json:"total_nodes"`
	BusyNodes   int      `json:"busy_nodes"`
	UsedNodes   int      `json:"used_nodes"`
	IdleNodes   int      `json:"idle_nodes"`
	Running     int      `json:"running_jobs"`
	Utilization float64  `json:"utilization"`
	BF          *float64 `json:"balance_factor,omitempty"`
	W           *int     `json:"window_size,omitempty"`
	VirtualSec  int64    `json:"virtual_time_sec"`
}

// QueueStatus is the wire form of GET /v1/queue.
type QueueStatus struct {
	NowSec       int64       `json:"now_sec"`
	DepthJobs    int         `json:"depth_jobs"`
	DepthMinutes float64     `json:"depth_minutes"`
	Jobs         []JobStatus `json:"jobs"`
}

// New starts a daemon. In finite-speedup mode a background goroutine
// advances the virtual clock every cfg.Tick; Close stops it.
func New(cfg Config) (*Daemon, error) {
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Tick <= 0 {
		cfg.Tick = 100 * time.Millisecond
	}
	inf := cfg.Speedup <= 0 || math.IsInf(cfg.Speedup, 1)
	live, err := sim.NewLive(sim.Config{
		Machine:        cfg.Machine,
		Scheduler:      cfg.Scheduler,
		CheckInterval:  cfg.CheckInterval,
		SchedulePeriod: cfg.SchedulePeriod,
		Paranoid:       cfg.Paranoid,
		Trace:          cfg.Trace,
	}, cfg.Lean)
	if err != nil {
		return nil, err
	}
	d := &Daemon{
		cfg:      cfg,
		log:      cfg.Logger,
		inf:      inf,
		live:     live,
		nextID:   1,
		wallBase: time.Now(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	d.hub = newEventHub(cfg.EventRing)
	live.SetNotify(func(t units.Time, j *job.Job, s job.State) {
		if !d.hub.active() {
			return
		}
		d.hub.publish(JobEvent{
			TSec: int64(t), ID: j.ID, User: j.User, Nodes: j.Nodes,
			State: s.String(),
		})
	})
	d.lanes = newLanes(d, cfg.IngestShards, cfg.IngestQueue)
	if cfg.CheckpointPath != "" {
		if err := d.restore(cfg.CheckpointPath); err != nil {
			d.lanes.close()
			return nil, err
		}
	}
	if inf {
		close(d.done)
	} else {
		go d.tickLoop()
	}
	mode := fmt.Sprintf("x%g", cfg.Speedup)
	if inf {
		mode = "batch (∞)"
	}
	d.log.Info("daemon started",
		"machine", cfg.Machine.Name(), "policy", live.PolicyName(), "speedup", mode)
	return d, nil
}

// tickLoop advances the virtual clock from wall time.
func (d *Daemon) tickLoop() {
	defer close(d.done)
	t := time.NewTicker(d.cfg.Tick)
	defer t.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-t.C:
			d.mu.Lock()
			if !d.closed {
				if err := d.live.AdvanceTo(d.vnowLocked()); err != nil {
					d.log.Error("advance failed", "err", err)
				}
			}
			d.mu.Unlock()
		}
	}
}

// vnowLocked computes the current virtual time. Callers hold d.mu.
func (d *Daemon) vnowLocked() units.Time {
	if d.inf {
		return d.live.Now()
	}
	elapsed := time.Since(d.wallBase).Seconds()
	v := d.vbase + units.Time(d.cfg.Speedup*elapsed)
	// The engine clock can run ahead of the wall mapping after a Drain;
	// never report time moving backwards.
	if n := d.live.Now(); v < n {
		v = n
	}
	return v
}

// Submit accepts a job, assigning the next monotonic ID.
func (d *Daemon) Submit(req SubmitRequest) (JobStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st, err := d.submitLocked(&req, nil)
	if err != nil {
		return st, err
	}
	d.log.Info("job submitted", "id", st.ID, "user", st.User,
		"nodes", st.Nodes, "walltime", st.WalltimeSec, "submit", st.SubmitSec)
	return st, nil
}

// SubmitBatch admits a batch through the sharded ingest lanes: items
// are staged per-user-shard, merged back into arrival order, and
// injected into the engine under one lock acquisition per flush (see
// ingest.go). Blocks until every item has a result; results are
// index-aligned with reqs. Per-item failures (validation, rejection,
// overload) are reported in the corresponding SubmitResult, never as a
// batch-level error.
func (d *Daemon) SubmitBatch(reqs []SubmitRequest) []SubmitResult {
	results := make([]SubmitResult, len(reqs))
	d.lanes.submit(reqs, results)
	return results
}

// Flush forces every staged ingest-lane submission into the engine
// before returning — the synchronization point Drain and tests use.
func (d *Daemon) Flush() { d.lanes.flushAll() }

// submitLocked is the admission core shared by the single-submit path
// and the lane flusher. Callers hold d.mu. It skips the per-job slog
// line (the flusher logs per batch) but otherwise matches Submit
// exactly — same validation, same ID sequence, same virtual-time
// stamping — so batched and serial admission are observationally
// identical. pred is the storage the status's PredictedStartSec points
// at (see statusLocked).
func (d *Daemon) submitLocked(req *SubmitRequest, pred *int64) (JobStatus, error) {
	if d.closed {
		return JobStatus{}, ErrClosed
	}
	submit := d.vnowLocked()
	if d.inf && req.SubmitSec != nil {
		submit = units.Time(*req.SubmitSec)
	}
	runtime := req.RuntimeSec
	if runtime <= 0 {
		runtime = req.WalltimeSec
	}
	j, err := d.live.Submit(&job.Job{
		ID:       d.nextID,
		User:     req.User,
		Submit:   submit,
		Nodes:    req.Nodes,
		Walltime: units.Duration(req.WalltimeSec),
		Runtime:  units.Duration(runtime),
	})
	if err != nil {
		return JobStatus{}, err
	}
	d.nextID++
	d.predictLocked(j.ID)
	if d.hub.active() {
		d.hub.publish(JobEvent{
			TSec: int64(submit), ID: j.ID, User: j.User, Nodes: j.Nodes,
			State: job.Submitted.String(),
		})
	}
	return d.statusLocked(j, pred), nil
}

// Cancel withdraws a job that has not started.
func (d *Daemon) Cancel(id int) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	j, ok := d.live.Job(id)
	if !ok {
		return ErrUnknownJob
	}
	if !d.live.Cancel(id) {
		return fmt.Errorf("%w: job %d is %s", ErrNotCancellable, id, j.State)
	}
	d.log.Info("job cancelled", "id", id)
	return nil
}

// Job reports one job's status.
func (d *Daemon) Job(id int) (JobStatus, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	j, ok := d.live.Job(id)
	if !ok {
		return JobStatus{}, ErrUnknownJob
	}
	return d.statusLocked(j, nil), nil
}

// Queue reports the waiting jobs in arrival order.
func (d *Daemon) Queue() QueueStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	waiting := d.live.Queue()
	out := QueueStatus{
		NowSec:       int64(d.live.Now()),
		DepthJobs:    len(waiting),
		DepthMinutes: d.live.QueueDepthMinutes(),
		Jobs:         make([]JobStatus, 0, len(waiting)),
	}
	for _, j := range waiting {
		out.Jobs = append(out.Jobs, d.statusLocked(j, nil))
	}
	return out
}

// Machine reports an occupancy snapshot.
func (d *Daemon) Machine() MachineStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	m := d.live.Machine()
	st := MachineStatus{
		Name:       m.Name(),
		Policy:     d.live.PolicyName(),
		TotalNodes: m.TotalNodes(),
		BusyNodes:  m.BusyNodes(),
		UsedNodes:  m.UsedNodes(),
		IdleNodes:  m.IdleNodes(),
		Running:    d.live.RunningLen(),
		VirtualSec: int64(d.vnowLocked()),
	}
	if st.TotalNodes > 0 {
		st.Utilization = float64(st.UsedNodes) / float64(st.TotalNodes)
	}
	if bf, w, ok := d.live.Tunables(); ok {
		st.BF, st.W = &bf, &w
	}
	return st
}

// TunerStatus is the wire form of GET /v1/tuner: the adaptive policy's
// current tunables, plus the what-if planner's status when the policy
// carries one.
type TunerStatus struct {
	Policy string         `json:"policy"`
	BF     *float64       `json:"balance_factor,omitempty"`
	W      *int           `json:"window_size,omitempty"`
	WhatIf *whatif.Status `json:"whatif,omitempty"`
}

// Tuner snapshots the hosted policy's adaptive state.
func (d *Daemon) Tuner() TunerStatus {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := TunerStatus{Policy: d.live.PolicyName()}
	if bf, w, ok := d.live.Tunables(); ok {
		st.BF, st.W = &bf, &w
	}
	if ws, ok := d.live.WhatIfStatus(); ok {
		st.WhatIf = &ws
	}
	return st
}

// Drain processes every pending event, winding the session down to
// quiescence — the batch-mode fast-forward. Staged ingest-lane
// submissions are flushed first, so "submit a batch, then drain" never
// strands an admitted job. In finite-speedup mode the wall anchor is
// rebased so the virtual clock continues from the drained horizon
// instead of snapping backwards.
func (d *Daemon) Drain() (nowSec int64, err error) {
	d.lanes.flushAll() // lock order: lanes.flushMu strictly before d.mu
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	if err := d.live.Drain(); err != nil {
		return 0, err
	}
	if !d.inf {
		d.vbase = d.live.Now()
		d.wallBase = time.Now()
	}
	return int64(d.live.Now()), nil
}

// Snapshot carries the gauge values /metrics samples at scrape time.
type Snapshot struct {
	VirtualSec        int64
	Utilization       float64
	QueueJobs         int
	QueueDepthMinutes float64
	RunningJobs       int
	AvgBSLD           float64
	MaxBSLD           float64
	BF                float64
	W                 int
	HasTunables       bool
	Accepted          int
	Rejected          int
	Cancelled         int
	Finished          int
	Killed            int
	WhatIf            *whatif.Status
}

// Stats samples the scrape-time gauges.
func (d *Daemon) Stats() Snapshot {
	d.mu.Lock()
	defer d.mu.Unlock()
	m, c := d.live.Machine(), d.live.Collector()
	s := Snapshot{
		VirtualSec:        int64(d.vnowLocked()),
		QueueJobs:         d.live.QueueLen(),
		QueueDepthMinutes: d.live.QueueDepthMinutes(),
		RunningJobs:       d.live.RunningLen(),
		Accepted:          d.live.Accepted(),
		Rejected:          d.live.Rejected(),
		Cancelled:         d.live.Cancelled(),
		Finished:          c.FinishedCount(),
		Killed:            c.KilledCount(),
		AvgBSLD:           c.AvgBSLD(),
		MaxBSLD:           c.MaxBSLD(),
	}
	if t := m.TotalNodes(); t > 0 {
		s.Utilization = float64(m.UsedNodes()) / float64(t)
	}
	if bf, w, ok := d.live.Tunables(); ok {
		s.BF, s.W, s.HasTunables = bf, w, true
	}
	if ws, ok := d.live.WhatIfStatus(); ok {
		s.WhatIf = &ws
	}
	return s
}

// Ready reports whether the daemon accepts work.
func (d *Daemon) Ready() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return !d.closed
}

// Close stops the ingest lanes (their final drain injects anything
// already staged; later submissions fail fast), stops the clock
// goroutine, and, when a checkpoint path is configured, persists the
// pending queue to disk. Idempotent.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed || d.closing {
		d.mu.Unlock()
		return nil
	}
	d.closing = true
	d.mu.Unlock()
	d.lanes.close()
	d.mu.Lock()
	d.closed = true
	d.mu.Unlock()
	close(d.stop)
	<-d.done

	d.mu.Lock()
	defer d.mu.Unlock()
	if d.cfg.CheckpointPath == "" {
		d.log.Info("daemon stopped")
		return nil
	}
	n, err := d.checkpointLocked(d.cfg.CheckpointPath)
	if err != nil {
		d.log.Error("checkpoint failed", "path", d.cfg.CheckpointPath, "err", err)
		return err
	}
	d.log.Info("daemon stopped", "checkpoint", d.cfg.CheckpointPath, "jobs", n)
	return nil
}

// predictLocked records the session's start estimate for a job just
// admitted. Callers hold d.mu.
func (d *Daemon) predictLocked(id int) {
	ts, ok := d.live.PredictStart(id)
	if !ok {
		ts = -1
	}
	d.predicted.Set(id, ts)
}

// statusLocked renders a job's wire status. pred is the storage its
// PredictedStartSec points at, so the lane flusher can hand out the
// elements of one array per batch; nil allocates. Callers hold d.mu.
func (d *Daemon) statusLocked(j *job.Job, pred *int64) JobStatus {
	st := JobStatus{
		ID:          j.ID,
		User:        j.User,
		Nodes:       j.Nodes,
		WalltimeSec: int64(j.Walltime),
		State:       j.State.String(),
		SubmitSec:   int64(j.Submit),
	}
	if p := d.predicted.Get(j.ID); p >= 0 {
		if pred == nil {
			pred = new(int64)
		}
		*pred = int64(p)
		st.PredictedStartSec = pred
	}
	switch j.State {
	case job.Running:
		s, w := int64(j.Start), int64(j.Wait())
		st.StartSec, st.WaitSec = &s, &w
	case job.Finished, job.Killed:
		s, e, w := int64(j.Start), int64(j.End), int64(j.Wait())
		st.StartSec, st.EndSec, st.WaitSec = &s, &e, &w
	}
	return st
}

// --- checkpoint persistence -------------------------------------------

// checkpointFile is the on-disk queue snapshot. Only jobs that had not
// finished are saved; on restore they are requeued as fresh submissions
// at virtual time zero, in their original submission order — running
// jobs lose their progress, the usual crash-recovery contract of a
// batch scheduler.
type checkpointFile struct {
	Version  int             `json:"version"`
	SavedSec int64           `json:"saved_virtual_sec"`
	NextID   int             `json:"next_id"`
	Jobs     []checkpointJob `json:"jobs"`
}

type checkpointJob struct {
	ID            int    `json:"id"`
	User          string `json:"user,omitempty"`
	Nodes         int    `json:"nodes"`
	WalltimeSec   int64  `json:"walltime_sec"`
	RuntimeSec    int64  `json:"runtime_sec"`
	OrigSubmitSec int64  `json:"orig_submit_sec"`
}

const checkpointVersion = 1

// checkpointLocked writes the pending queue atomically (tmp + rename).
func (d *Daemon) checkpointLocked(path string) (int, error) {
	cp := checkpointFile{
		Version:  checkpointVersion,
		SavedSec: int64(d.live.Now()),
		NextID:   d.nextID,
	}
	d.live.Each(func(j *job.Job) {
		switch j.State {
		case job.Submitted, job.Queued, job.Running:
			cp.Jobs = append(cp.Jobs, checkpointJob{
				ID: j.ID, User: j.User, Nodes: j.Nodes,
				WalltimeSec: int64(j.Walltime), RuntimeSec: int64(j.Runtime),
				OrigSubmitSec: int64(j.Submit),
			})
		}
	})
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return 0, err
	}
	tmp := path + ".tmp"
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return 0, err
	}
	if err := os.Rename(tmp, path); err != nil {
		return 0, err
	}
	return len(cp.Jobs), nil
}

// restore requeues a saved checkpoint. A missing file is not an error —
// it is the normal first boot. Every saved ID must be unique and in
// 1..job.MaxID, and next_id no larger than job.MaxID, or the whole file
// is rejected before anything is requeued; new IDs continue past both
// next_id and the largest saved ID.
func (d *Daemon) restore(path string) error {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("server: reading checkpoint: %w", err)
	}
	var cp checkpointFile
	if err := json.Unmarshal(data, &cp); err != nil {
		return fmt.Errorf("server: checkpoint %s: %w", path, err)
	}
	if cp.Version != checkpointVersion {
		return fmt.Errorf("server: checkpoint %s: unsupported version %d", path, cp.Version)
	}
	if cp.NextID > job.MaxID {
		return fmt.Errorf("server: checkpoint %s: next_id %d above %d", path, cp.NextID, job.MaxID)
	}
	seen := make(map[int]bool, len(cp.Jobs))
	for _, cj := range cp.Jobs {
		switch {
		case cj.ID <= 0 || cj.ID > job.MaxID:
			return fmt.Errorf("server: checkpoint %s: job ID %d outside 1..%d", path, cj.ID, job.MaxID)
		case seen[cj.ID]:
			return fmt.Errorf("server: checkpoint %s: requeueing checkpointed job %d: duplicate ID", path, cj.ID)
		}
		seen[cj.ID] = true
		d.nextID = max(d.nextID, cj.ID+1)
	}
	for _, cj := range cp.Jobs {
		j, err := d.live.Submit(&job.Job{
			ID:       cj.ID,
			User:     cj.User,
			Submit:   0, // requeued at the fresh session's origin
			Nodes:    cj.Nodes,
			Walltime: units.Duration(cj.WalltimeSec),
			Runtime:  units.Duration(cj.RuntimeSec),
		})
		if err != nil {
			return fmt.Errorf("server: requeueing checkpointed job %d: %w", cj.ID, err)
		}
		d.predictLocked(j.ID)
	}
	d.nextID = max(d.nextID, cp.NextID)
	d.log.Info("checkpoint restored", "path", path, "jobs", len(cp.Jobs))
	return nil
}
