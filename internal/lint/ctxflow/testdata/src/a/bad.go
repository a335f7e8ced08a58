// Seeded violations: detached contexts and ignored ctx parameters.
package a

import "context"

func detach() context.Context {
	return context.Background() // want "accept and propagate"
}

func todo() context.Context {
	return context.TODO() // want "accept and propagate"
}

// Query advertises cancellation in its signature but drops the parameter.
func Query(ctx context.Context, path string) (string, error) { // want "never uses it"
	return path, nil
}
