// Package fixture is the synthetic module the reachability analysis is
// tested on: its exported declarations are roots, like the real module's
// root package. The expected unreached set is in reach_test.go.
package fixture

import "fixture/internal/lib"

// Hidden is reached only through this alias. Being a root does not reach
// the methods of what it names: nobody calls lib.Hidden.Secret.
type Hidden = lib.Hidden

// AliasedConfig names lib.AliasedConfig: the alias reaches the type, but
// does not make Knob library surface.
type AliasedConfig = lib.AliasedConfig

// APIConfig is declared in the API package: its fields are set by callers
// outside the module.
type APIConfig struct{ Level int }

// Version is an exported function of the API package: a root.
func Version() string { return lib.ViaAPI() }

// unexportedAPI is not exported and nothing references it.
func unexportedAPI() {}
