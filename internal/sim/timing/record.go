package timing

import (
	"fmt"

	"multiscalar/internal/sim/taskpath"
	"multiscalar/internal/tfg"
)

// Paths is a recorded dynamic task stream, the input Replay runs the ring
// model over.
type Paths = taskpath.Stream

// Record executes the program under g once, for at most steps dynamic
// tasks (0 = until it halts), and returns its recorded task stream. Its
// errors, the functional machine's included, are wrapped as "timing:
// ...".
func Record(g *tfg.Graph, steps int) (*Paths, error) {
	p, err := taskpath.Record(g, steps)
	if err != nil {
		return nil, fmt.Errorf("timing: %w", err)
	}
	return p, nil
}
