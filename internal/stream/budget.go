package stream

import (
	"errors"
	"fmt"
	"io"
	"strings"

	"streamtri/internal/graph"
)

// RecordError marks a decode failure that is confined to one record and
// that the source has already skipped past: a malformed text line (the
// line is consumed before the error returns) or a truncated trailing
// binary record (the partial bytes are discarded). Calling Next/Fill
// again after a RecordError resumes at the next record. Errors that are
// NOT RecordErrors — I/O failures, sticky header/format mismatches —
// leave the source in an undefined or terminal state and are never
// skippable.
//
// RecordError is transparent: Error() is exactly the wrapped error's
// message, and errors.Is/As see through it via Unwrap.
type RecordError struct{ Err error }

func (e *RecordError) Error() string { return e.Err.Error() }
func (e *RecordError) Unwrap() error { return e.Err }

// recordErrorf builds a RecordError in one step.
func recordErrorf(format string, args ...any) error {
	return &RecordError{Err: fmt.Errorf(format, args...)}
}

// maxBadSamples is how many skipped-record error messages each source
// retains for diagnostics (PipelineStats.BadRecordSamples).
const maxBadSamples = 4

// pipeCfg carries the robustness knobs shared by the pipeline flavors.
type pipeCfg struct {
	maxBadRecords           int
	continueOnSourceFailure bool
}

// PipeOption configures a pipeline constructor.
type PipeOption func(*pipeCfg)

// WithMaxBadRecords allows each source to skip up to n malformed
// records (RecordError failures: bad text lines, truncated binary
// tails) instead of failing the run on the first one. Skips are counted
// per source (PipelineStats.BadRecords) and the first few error
// messages are retained (PipelineStats.BadRecordSamples); exceeding the
// budget fails the source with the retained samples in the error.
// n <= 0 keeps the default fail-on-first behavior.
func WithMaxBadRecords(n int) PipeOption {
	return func(c *pipeCfg) { c.maxBadRecords = n }
}

// WithContinueOnSourceFailure confines a source's failure to that
// source in a multi-source merge: the blocks it delivered stay in the
// merged stream, its terminal error is recorded in its SourceStats
// entry, and the merge runs the other sources to completion. The run
// fails only when every source has failed. The merged stream then lacks
// the failed source's remainder, so a caller whose answer depends on
// the complete sequence (the sliding window) leaves the option off.
func WithContinueOnSourceFailure() PipeOption {
	return func(c *pipeCfg) { c.continueOnSourceFailure = true }
}

func buildPipeCfg(opts []PipeOption) pipeCfg {
	var c pipeCfg
	for _, o := range opts {
		o(&c)
	}
	return c
}

// budgetedFill wraps a Pipeline fill function with a skip-and-count
// retry loop over RecordErrors, charged against prog's per-source
// budget. Non-record errors, io.EOF, and clean fills pass through
// untouched; with no budget the fill function is returned as-is, so the
// default path costs nothing. Termination is guaranteed: every retry
// either ends the loop or spends one unit of a finite budget.
func budgetedFill(fill func([]graph.Edge) (int, error), budget int, prog *pipeProgress) func([]graph.Edge) (int, error) {
	if budget <= 0 {
		return fill
	}
	return func(buf []graph.Edge) (int, error) {
		total := 0
		for {
			n, err := fill(buf[total:])
			total += n
			if err == nil || err == io.EOF {
				return total, err
			}
			if err = chargeBadRecord(err, budget, prog); err != nil {
				return total, err
			}
			if total == len(buf) {
				return total, nil
			}
		}
	}
}

// chargeBadRecord charges a skippable RecordError against prog's budget,
// sampling its message, and returns nil while the budget lasts. Any
// other error, an exceeded budget (the error then carries the retained
// samples), and every error when budget <= 0 come back terminal.
func chargeBadRecord(err error, budget int, prog *pipeProgress) error {
	var rec *RecordError
	if budget <= 0 || !errors.As(err, &rec) {
		return err
	}
	bad := prog.badRecords.Add(1)
	prog.addBadSample(err.Error())
	if bad > uint64(budget) {
		return fmt.Errorf("stream: decode-error budget exceeded: %d malformed records over budget %d: %w (samples: %s)",
			bad, budget, err, strings.Join(prog.badSampleSnapshot(), " | "))
	}
	return nil
}
