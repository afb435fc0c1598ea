// Package lookup has no code of its own.
package lookup
