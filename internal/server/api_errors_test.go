package server

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"amjs/internal/machine"
	"amjs/internal/sched"
)

// newTestAPI spins up an HTTP front end over a fresh speedup=∞ daemon
// with the validity oracle armed.
func newTestAPI(t *testing.T) (*Daemon, *httptest.Server) {
	t.Helper()
	d, err := New(Config{
		Machine:   machine.NewFlat(100),
		Scheduler: sched.NewEASY(),
		Speedup:   math.Inf(1),
		Paranoid:  true,
		Logger:    quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	srv := httptest.NewServer(NewAPI(d))
	t.Cleanup(srv.Close)
	return d, srv
}

// TestAPIMalformedInputs drives every malformed-input path of the HTTP
// surface through one table: broken bodies, invalid job shapes, and
// DELETEs aimed at ids the daemon cannot cancel.
func TestAPIMalformedInputs(t *testing.T) {
	neg := int64(-5)
	cases := []struct {
		name string
		body string // raw JSON body; "" means marshal req instead
		req  SubmitRequest
		want int
	}{
		{name: "truncated json", body: `{"user": "a", "nodes": 4`, want: http.StatusBadRequest},
		{name: "not json at all", body: `submit please`, want: http.StatusBadRequest},
		{name: "unknown field", body: `{"user":"a","nodes":4,"walltime_sec":60,"priority":9}`,
			want: http.StatusBadRequest},
		{name: "wrong field type", body: `{"user":"a","nodes":"four","walltime_sec":60}`,
			want: http.StatusBadRequest},
		{name: "zero nodes", req: SubmitRequest{User: "a", WalltimeSec: 60},
			want: http.StatusBadRequest},
		{name: "negative nodes", req: SubmitRequest{User: "a", Nodes: -4, WalltimeSec: 60},
			want: http.StatusBadRequest},
		{name: "zero walltime", req: SubmitRequest{User: "a", Nodes: 4},
			want: http.StatusBadRequest},
		{name: "negative walltime", req: SubmitRequest{User: "a", Nodes: 4, WalltimeSec: -60},
			want: http.StatusBadRequest},
		{name: "runtime beyond walltime",
			req:  SubmitRequest{User: "a", Nodes: 4, WalltimeSec: 60, RuntimeSec: 120},
			want: http.StatusBadRequest},
		{name: "negative submit time",
			req:  SubmitRequest{User: "a", Nodes: 4, WalltimeSec: 60, SubmitSec: &neg},
			want: http.StatusBadRequest},
		{name: "never fits the machine",
			req:  SubmitRequest{User: "a", Nodes: 101, WalltimeSec: 60},
			want: http.StatusUnprocessableEntity},
	}
	_, srv := newTestAPI(t)
	client := srv.Client()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := tc.body
			if body == "" {
				raw, err := json.Marshal(tc.req)
				if err != nil {
					t.Fatal(err)
				}
				body = string(raw)
			}
			resp, err := client.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var apiErr apiError
			if err := json.NewDecoder(resp.Body).Decode(&apiErr); err != nil {
				t.Fatalf("error body is not JSON: %v", err)
			}
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (error %q)", resp.StatusCode, tc.want, apiErr.Error)
			}
			if apiErr.Error == "" {
				t.Fatal("error body missing explanation")
			}
		})
	}
}

// TestAPIDeleteErrors exercises DELETE /v1/jobs/{id} against ids that
// are malformed, unknown, or not cancellable because the job already
// holds the machine.
func TestAPIDeleteErrors(t *testing.T) {
	d, srv := newTestAPI(t)
	client := srv.Client()

	// One accepted job; draining starts and finishes it.
	st, err := d.Submit(SubmitRequest{User: "a", Nodes: 100, WalltimeSec: 60, RuntimeSec: 60})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Drain(); err != nil {
		t.Fatal(err)
	}

	del := func(id string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodDelete, srv.URL+"/v1/jobs/"+id, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	cases := []struct {
		name string
		id   string
		want int
	}{
		{"non-numeric id", "twelve", http.StatusBadRequest},
		{"zero id", "0", http.StatusBadRequest},
		{"negative id", "-1", http.StatusBadRequest},
		{"unknown id", "9999", http.StatusNotFound},
		{"already finished", "1", http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := del(tc.id); got != tc.want {
				t.Fatalf("DELETE %s: status %d, want %d", tc.id, got, tc.want)
			}
		})
	}
	if got, err := d.Job(st.ID); err != nil || got.State != "finished" {
		t.Fatalf("job %d after failed deletes: %v %v", st.ID, got.State, err)
	}
}

// TestRestoreRejectsCorruptCheckpoint: a checkpoint whose contents the
// live session cannot requeue — duplicate ids, invalid jobs, an
// unsupported version, or garbled JSON — must fail daemon construction
// loudly instead of silently dropping jobs.
func TestRestoreRejectsCorruptCheckpoint(t *testing.T) {
	const okJob = `{"id": 1, "nodes": 4, "walltime_sec": 60, "runtime_sec": 60}`
	cases := []struct {
		name, payload, wantErr string
	}{
		{"duplicate job ids",
			`{"version": 1, "next_id": 3, "jobs": [` + okJob + `, ` + okJob + `]}`,
			"requeueing checkpointed job 1"},
		{"invalid job",
			`{"version": 1, "next_id": 2, "jobs": [{"id": 1, "nodes": -4, "walltime_sec": 60, "runtime_sec": 60}]}`,
			"requeueing checkpointed job 1"},
		{"unsupported version",
			`{"version": 99, "next_id": 1, "jobs": []}`,
			"unsupported version"},
		{"garbled json", `{"version": 1, "jobs": [`, "checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "queue.json")
			if err := os.WriteFile(path, []byte(tc.payload), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := New(Config{
				Machine:        machine.NewFlat(100),
				Scheduler:      sched.NewEASY(),
				Speedup:        math.Inf(1),
				CheckpointPath: path,
				Logger:         quietLogger(),
			})
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("New = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestCheckpointRoundTripEquivalence: closing a daemon with pending
// work and restoring it must reproduce, job for job, the schedule an
// uninterrupted daemon produces for the same submissions — the restore
// path loses no jobs, no ordering, and no id sequence.
func TestCheckpointRoundTripEquivalence(t *testing.T) {
	submissions := []SubmitRequest{
		{User: "a", Nodes: 100, WalltimeSec: 3600, RuntimeSec: 100},
		{User: "b", Nodes: 60, WalltimeSec: 600, RuntimeSec: 600},
		{User: "c", Nodes: 40, WalltimeSec: 300, RuntimeSec: 300},
	}
	sentinel := SubmitRequest{User: "d", Nodes: 10, WalltimeSec: 60, RuntimeSec: 60}
	mk := func(path string) *Daemon {
		t.Helper()
		d, err := New(Config{
			Machine:        machine.NewFlat(100),
			Scheduler:      sched.NewEASY(),
			Speedup:        math.Inf(1),
			Paranoid:       true,
			CheckpointPath: path,
			Logger:         quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	finish := func(d *Daemon) []JobStatus {
		t.Helper()
		if _, err := d.Submit(sentinel); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Drain(); err != nil {
			t.Fatal(err)
		}
		var out []JobStatus
		for id := 1; id <= len(submissions)+1; id++ {
			st, err := d.Job(id)
			if err != nil {
				t.Fatalf("job %d: %v", id, err)
			}
			out = append(out, st)
		}
		return out
	}

	// Reference: one uninterrupted session.
	ref := mk(filepath.Join(t.TempDir(), "ref.json"))
	defer ref.Close()
	for _, req := range submissions {
		if _, err := ref.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	want := finish(ref)

	// Interrupted: same submissions, then close (checkpointing the
	// queue) and restore into a fresh daemon.
	path := filepath.Join(t.TempDir(), "queue.json")
	d1 := mk(path)
	for _, req := range submissions {
		if _, err := d1.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	d2 := mk(path)
	defer d2.Close()
	got := finish(d2)

	for i, w := range want {
		g := got[i]
		if g.ID != w.ID || g.State != w.State || g.Nodes != w.Nodes {
			t.Fatalf("job %d: restored %+v, uninterrupted %+v", w.ID, g, w)
		}
		if (g.StartSec == nil) != (w.StartSec == nil) ||
			(g.StartSec != nil && *g.StartSec != *w.StartSec) ||
			(g.EndSec != nil && w.EndSec != nil && *g.EndSec != *w.EndSec) {
			t.Fatalf("job %d: restored start/end differ from uninterrupted run: %+v vs %+v",
				w.ID, g, w)
		}
	}
}

// TestRestoreCheckpointIDs: restore reads the saved IDs before it
// requeues anything. A file whose next_id is missing or does not exceed
// the largest saved ID restores, and new jobs get fresh IDs past it; a
// duplicate, non-positive or out-of-domain ID rejects the whole file.
func TestRestoreCheckpointIDs(t *testing.T) {
	savedJob := func(id int) string {
		return fmt.Sprintf(`{"id": %d, "nodes": 4, "walltime_sec": 60, "runtime_sec": 60}`, id)
	}
	cases := []struct {
		name, payload string
		wantNext      int    // first ID issued after a clean restore
		wantErr       string // or the error New must return
	}{
		{"missing next_id", `{"version": 1, "jobs": [` + savedJob(1) + `, ` + savedJob(2) + `]}`, 3, ""},
		{"next_id at most the largest ID", `{"version": 1, "next_id": 2, "jobs": [` + savedJob(1) + `, ` + savedJob(5) + `]}`, 6, ""},
		{"duplicate ID", `{"version": 1, "next_id": 3, "jobs": [` + savedJob(2) + `, ` + savedJob(2) + `]}`, 0, "duplicate ID"},
		{"non-positive ID", `{"version": 1, "next_id": 3, "jobs": [` + savedJob(0) + `]}`, 0, "job ID 0 outside"},
		{"out-of-domain ID", `{"version": 1, "jobs": [` + savedJob(1<<40) + `]}`, 0, "outside 1..2147483647"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "queue.json")
			if err := os.WriteFile(path, []byte(tc.payload), 0o644); err != nil {
				t.Fatal(err)
			}
			d, err := New(Config{
				Machine:        machine.NewFlat(100),
				Scheduler:      sched.NewEASY(),
				Speedup:        math.Inf(1),
				CheckpointPath: path,
				Logger:         quietLogger(),
			})
			if tc.wantErr != "" {
				if err == nil {
					d.Close()
				}
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("New = %v, want error containing %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer d.Close()
			for i := 0; i < 3; i++ {
				st, err := d.Submit(SubmitRequest{User: "v", Nodes: 1, WalltimeSec: 60})
				if err != nil {
					t.Fatalf("submit %d after restore: %v", i, err)
				}
				if st.ID != tc.wantNext+i {
					t.Fatalf("submit %d after restore got ID %d, want %d", i, st.ID, tc.wantNext+i)
				}
			}
		})
	}
}
