// Package chaos drives the route package from its tests.
package chaos
