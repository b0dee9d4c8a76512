package statemodel

// withFanOutMin lowers the engine's fan-out thresholds so that tests on
// small graphs still drive the parallel flush and the parallel batches
// (and, with the self-check, the boundary-conflict oracle).
func withFanOutMin(marks int64, moves int) EngineOption {
	return func(e *Engine) { e.fan = fanOutMin{marks: marks, moves: moves} }
}
