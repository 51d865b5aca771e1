package fault

// RollThreshold and Hit expose the injector's integer roll to the
// external tests.
var (
	RollThreshold = rollThreshold
	Hit           = hit
)
