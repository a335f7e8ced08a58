// Clean cases: contexts that flow.
package a

import "context"

// Propagate hands its ctx down; no detachment.
func Propagate(ctx context.Context, path string) (string, error) {
	return lower(ctx, path)
}

func lower(ctx context.Context, path string) (string, error) {
	if err := ctx.Err(); err != nil {
		return "", err
	}
	return path, nil
}

// unexported helpers may sit below the surface without using ctx eagerly.
func stash(ctx context.Context) context.Context {
	return ctx
}
