// Package mserve is the prediction-as-a-service daemon: a hardened
// HTTP/JSON front end over the evaluation engine. It accepts grid cells
// (workload + canonical predictor spec), runs them on a shared
// engine.Pool with the process-wide trace cache as the hot cache, and
// wraps the whole thing in a production robustness envelope — admission
// control with load shedding, per-request deadlines, panic isolation,
// single-flight deduplication with a result cache, and graceful drain.
//
// The determinism contract carries over from the engine: a response body
// is rendered purely from the engine.Result, so the bytes a client gets
// are identical to what a direct mbench/engine run of the same cell
// would render — which is what makes the result cache a correctness
// proof rather than an approximation.
package mserve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"

	"multiscalar/internal/engine"
	"multiscalar/internal/fault"
	"multiscalar/internal/workload"
)

// DefaultMaxBody caps /eval request bodies. Requests are tiny (a
// workload name and a spec string); anything larger is garbage or abuse.
const DefaultMaxBody = 1 << 16

// EvalRequest is the /eval request body. Unknown fields are rejected
// (DisallowUnknownFields), the body is size-capped, and the spec must be
// in canonical form — untrusted input cannot smuggle two spellings of
// the same cell past the cache key.
type EvalRequest struct {
	// Workload is the workload short name ("exprc", "boolmin", ...).
	Workload string `json:"workload"`
	// Spec is the canonical predictor spec (engine.Parse fixed point).
	Spec string `json:"spec"`
	// Mode optionally overrides the spec-derived evaluation mode:
	// "auto" (or empty), "exit", "target", "task", "timing".
	Mode string `json:"mode,omitempty"`
	// Steps truncates the replay trace (0 = full; replay modes only).
	Steps int `json:"steps,omitempty"`
	// TimingSteps bounds a timing run (timing mode only). 0 runs the
	// program to halt: a served cell's contract, unlike mbench's
	// Config, whose 0 resolves to a 400 000-task budget.
	TimingSteps int `json:"timing_steps,omitempty"`
	// TimeoutMS is the client's deadline for this request in
	// milliseconds (0 = the server default; clamped to the server max).
	TimeoutMS int `json:"timeout_ms,omitempty"`
}

// Cell is a validated, canonicalized evaluation cell — the unit the
// result cache and singleflight key on.
type Cell struct {
	// Workload is the validated workload name.
	Workload string
	// Spec is the canonical spec string.
	Spec string
	// Mode is the resolved (never Auto) evaluation mode.
	Mode engine.Mode
	// Steps is the trace truncation (replay modes; 0 in timing mode).
	Steps int
	// TimingSteps is the timing budget (timing mode; 0 in replay modes).
	TimingSteps int
}

// Key renders the cell's cache/singleflight key in the same spirit as
// the resume journal's keys: the canonical spec plus the resolved
// execution config, so cosmetic respellings can never mint distinct
// entries. Validation guarantees one cell ⇔ one key ⇔ one result.
func (c Cell) Key() string {
	return fmt.Sprintf("%s/%s@mode=%s,steps=%d,timing=%d",
		c.Workload, c.Spec, c.Mode, c.Steps, c.TimingSteps)
}

// Run converts the cell to the engine's run form.
func (c Cell) Run() engine.Run {
	return engine.Run{
		Workload:    c.Workload,
		Spec:        c.Spec,
		Mode:        c.Mode,
		MaxSteps:    c.Steps,
		TimingSteps: c.TimingSteps,
	}
}

// RequestError is a client-side validation failure (HTTP 4xx), as
// opposed to an evaluation failure (5xx).
type RequestError struct {
	// Status is the HTTP status to answer with.
	Status int
	// Code is a stable machine-readable error code.
	Code string
	// Message is the human-readable detail.
	Message string
}

// Error implements error.
func (e *RequestError) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

func badRequest(code, format string, args ...any) *RequestError {
	return &RequestError{Status: http.StatusBadRequest, Code: code, Message: fmt.Sprintf(format, args...)}
}

// DecodeEvalRequest reads and hardens one /eval body: size-capped
// (MaxBytesReader), strict fields (DisallowUnknownFields), exactly one
// JSON value, no trailing garbage. w is needed so MaxBytesReader can
// close the connection on oversized bodies; maxBody <= 0 means
// DefaultMaxBody.
func DecodeEvalRequest(w http.ResponseWriter, r *http.Request, maxBody int64) (*EvalRequest, error) {
	if maxBody <= 0 {
		maxBody = DefaultMaxBody
	}
	body := http.MaxBytesReader(w, r.Body, maxBody)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	var req EvalRequest
	if err := dec.Decode(&req); err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			return nil, &RequestError{
				Status: http.StatusRequestEntityTooLarge, Code: "body_too_large",
				Message: fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit),
			}
		}
		return nil, badRequest("bad_json", "decoding request body: %v", err)
	}
	// Exactly one JSON value: trailing garbage means a malformed (or
	// smuggled) request, not a second request.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return nil, badRequest("trailing_data", "request body holds more than one JSON value")
	}
	return &req, nil
}

// parseMode maps the request's mode string to an engine mode.
func parseMode(s string) (engine.Mode, error) {
	switch s {
	case "", "auto":
		return engine.ModeAuto, nil
	case "exit":
		return engine.ModeExit, nil
	case "target":
		return engine.ModeTarget, nil
	case "task":
		return engine.ModeTask, nil
	case "timing":
		return engine.ModeTiming, nil
	}
	return engine.ModeAuto, fmt.Errorf("unknown mode %q (want auto, exit, target, task, or timing)", s)
}

// resolveMode derives the concrete evaluation mode the engine would use
// for sp (mirrors engine run resolution for ModeAuto).
func resolveMode(sp *engine.Spec, m engine.Mode) engine.Mode {
	if m != engine.ModeAuto {
		return m
	}
	switch sp.Class() {
	case engine.ClassExit:
		return engine.ModeExit
	case engine.ClassTarget:
		return engine.ModeTarget
	case engine.ClassTask:
		return engine.ModeTask
	default:
		return engine.ModeTiming
	}
}

// ValidateEvalRequest turns a decoded request into a canonical Cell or a
// structured RequestError. Every accepted request is fully canonical:
// the workload exists, the spec string is the engine's canonical form
// (Parse∘String fixed point, checked by round-trip), the mode is
// resolved and buildable, and step budgets are only present where they
// are meaningful — so equal cells, and only equal cells, share a key.
func ValidateEvalRequest(req *EvalRequest) (Cell, error) {
	var c Cell
	if strings.TrimSpace(req.Workload) == "" {
		return c, badRequest("missing_workload", "workload is required")
	}
	if _, err := workload.ByName(req.Workload); err != nil {
		return c, badRequest("unknown_workload", "%v", err)
	}
	if strings.TrimSpace(req.Spec) == "" {
		return c, badRequest("missing_spec", "spec is required")
	}
	sp, err := engine.Parse(req.Spec)
	if err != nil {
		return c, badRequest("bad_spec", "%v", err)
	}
	if canonical := sp.String(); canonical != req.Spec {
		// Round-trip check: accepting non-canonical spellings would let
		// equivalent requests mint distinct cache keys. Tell the client
		// the exact string to send instead.
		return c, badRequest("noncanonical_spec",
			"spec %q is not canonical; send %q", req.Spec, canonical)
	}
	m, err := parseMode(req.Mode)
	if err != nil {
		return c, badRequest("bad_mode", "%v", err)
	}
	mode := resolveMode(sp, m)

	// Mode/spec compatibility, checked here so an impossible cell is a
	// 400 instead of wasting an admission slot to fail inside the pool.
	switch mode {
	case engine.ModeExit:
		if _, err := sp.BuildExit(); err != nil {
			return c, badRequest("mode_mismatch", "%v", err)
		}
	case engine.ModeTarget:
		if _, err := sp.BuildTarget(); err != nil {
			return c, badRequest("mode_mismatch", "%v", err)
		}
	case engine.ModeTask:
		p, err := sp.BuildTask()
		if err != nil {
			return c, badRequest("mode_mismatch", "%v", err)
		}
		if p == nil {
			return c, badRequest("mode_mismatch", "the perfect predictor is only meaningful in timing runs")
		}
	case engine.ModeTiming:
		if _, err := sp.BuildTask(); err != nil {
			return c, badRequest("mode_mismatch", "%v", err)
		}
	}

	if req.Steps < 0 {
		return c, badRequest("bad_steps", "steps must be >= 0")
	}
	if req.TimingSteps < 0 {
		return c, badRequest("bad_timing_steps", "timing_steps must be >= 0")
	}
	if req.TimeoutMS < 0 {
		return c, badRequest("bad_timeout", "timeout_ms must be >= 0")
	}
	// Budgets only where they mean something: a steps field on a timing
	// run (or timing_steps on a replay) would be silently ignored by the
	// engine but would still split the cache key — reject instead.
	if mode == engine.ModeTiming && req.Steps != 0 {
		return c, badRequest("bad_steps", "steps does not apply to timing runs (use timing_steps)")
	}
	if mode != engine.ModeTiming && req.TimingSteps != 0 {
		return c, badRequest("bad_timing_steps", "timing_steps only applies to timing runs")
	}

	c = Cell{
		Workload:    req.Workload,
		Spec:        sp.String(),
		Mode:        mode,
		Steps:       req.Steps,
		TimingSteps: req.TimingSteps,
	}
	return c, nil
}

// ExitJSON is the exit-replay result body.
type ExitJSON struct {
	Steps    int     `json:"steps"`
	Misses   int     `json:"misses"`
	States   int     `json:"states"`
	MissRate float64 `json:"miss_rate"`
}

// TargetJSON is the indirect-target result body.
type TargetJSON struct {
	Steps    int     `json:"steps"`
	Misses   int     `json:"misses"`
	States   int     `json:"states"`
	MissRate float64 `json:"miss_rate"`
}

// KindJSON is one control-kind row of a task result.
type KindJSON struct {
	Kind   string `json:"kind"`
	Steps  int    `json:"steps"`
	Misses int    `json:"misses"`
}

// TaskJSON is the task-replay result body.
type TaskJSON struct {
	Steps        int        `json:"steps"`
	ExitMisses   int        `json:"exit_misses"`
	Misses       int        `json:"misses"`
	MissRate     float64    `json:"miss_rate"`
	ExitMissRate float64    `json:"exit_miss_rate"`
	ByKind       []KindJSON `json:"by_kind,omitempty"`
}

// TimingJSON is the ring timing-model result body.
type TimingJSON struct {
	Cycles           uint64  `json:"cycles"`
	Instrs           uint64  `json:"instrs"`
	Tasks            int     `json:"tasks"`
	TaskMispredicts  int     `json:"task_mispredicts"`
	IntraMispredicts uint64  `json:"intra_mispredicts"`
	IPC              float64 `json:"ipc"`
	TaskMissRate     float64 `json:"task_miss_rate"`
}

// ResultJSON is the mode-specific payload of a successful evaluation —
// exactly one field is set, matching the cell's mode.
type ResultJSON struct {
	Exit   *ExitJSON   `json:"exit,omitempty"`
	Target *TargetJSON `json:"target,omitempty"`
	Task   *TaskJSON   `json:"task,omitempty"`
	Timing *TimingJSON `json:"timing,omitempty"`
}

// EvalResponse is the /eval success body. Everything in it is a pure
// function of the cell and its engine.Result; volatile serving facts
// (cache hit/miss/join, timings) travel in headers so two answers for
// the same cell are byte-identical no matter which path served them.
type EvalResponse struct {
	Key         string     `json:"key"`
	Workload    string     `json:"workload"`
	Spec        string     `json:"spec"`
	Mode        string     `json:"mode"`
	Steps       int        `json:"steps"`
	TimingSteps int        `json:"timing_steps"`
	Result      ResultJSON `json:"result"`
}

// RenderResult converts an engine result into the wire payload, in a
// fixed field order with ByKind rows sorted by kind name — fully
// deterministic bytes under encoding/json.
func RenderResult(mode engine.Mode, res engine.Result) ResultJSON {
	var out ResultJSON
	switch mode {
	case engine.ModeExit:
		r := res.Exit
		out.Exit = &ExitJSON{Steps: r.Steps, Misses: r.Misses, States: r.States, MissRate: r.MissRate()}
	case engine.ModeTarget:
		r := res.Target
		out.Target = &TargetJSON{Steps: r.Steps, Misses: r.Misses, States: r.States, MissRate: r.MissRate()}
	case engine.ModeTask:
		r := res.Task
		tj := &TaskJSON{
			Steps: r.Steps, ExitMisses: r.ExitMisses, Misses: r.Misses,
			MissRate: r.MissRate(), ExitMissRate: r.ExitMissRate(),
		}
		for kind, km := range r.ByKind {
			tj.ByKind = append(tj.ByKind, KindJSON{Kind: kind.String(), Steps: km.Steps, Misses: km.Misses})
		}
		sort.Slice(tj.ByKind, func(i, j int) bool { return tj.ByKind[i].Kind < tj.ByKind[j].Kind })
		out.Task = tj
	case engine.ModeTiming:
		r := res.Timing
		out.Timing = &TimingJSON{
			Cycles: r.Cycles, Instrs: r.Instrs, Tasks: r.Tasks,
			TaskMispredicts: r.TaskMispredicts, IntraMispredicts: r.IntraMispredicts,
			IPC: r.IPC(), TaskMissRate: r.TaskMissRate(),
		}
	}
	return out
}

// RenderResponse builds the full deterministic success body for a cell.
func RenderResponse(c Cell, res engine.Result) *EvalResponse {
	return &EvalResponse{
		Key:         c.Key(),
		Workload:    c.Workload,
		Spec:        c.Spec,
		Mode:        c.Mode.String(),
		Steps:       c.Steps,
		TimingSteps: c.TimingSteps,
		Result:      RenderResult(c.Mode, res),
	}
}

// ErrorBody is the structured error payload of every non-2xx answer.
type ErrorBody struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse wraps ErrorBody at the top level.
type ErrorResponse struct {
	Error ErrorBody `json:"error"`
}

// errorCodeFor classifies an evaluation-side failure. Panics inside a
// predictor arrive as *fault.PanicError (the engine's panic isolation);
// everything else is a plain run failure.
func errorCodeFor(err error) (status int, code string) {
	var pe *fault.PanicError
	var te *engine.RunTimeoutError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError, "panic"
	case errors.As(err, &te):
		return http.StatusGatewayTimeout, "run_timeout"
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout, "deadline"
	default:
		return http.StatusInternalServerError, "run_failed"
	}
}
