package progressive

import (
	"entityres/internal/entity"
	"entityres/internal/evaluation"
)

// RunResult is the outcome of a budgeted progressive run.
type RunResult struct {
	// Curve is the progressive recall curve: ground-truth recall as a
	// function of executed comparisons.
	Curve evaluation.Curve
	// Matches is everything the matcher reported within budget.
	Matches *entity.Matches
	// Comparisons is the number executed (≤ budget).
	Comparisons int64
}
