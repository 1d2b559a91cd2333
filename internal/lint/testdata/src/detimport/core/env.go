package core

import "os"

// Each environment read in a layer is reported where it stands: in a
// package-level initializer, in an exported function and in an
// unexported helper alike.

var envAtInit = os.Getenv("MCS_FIXTURE") // want `os.Getenv in deterministic layer .*/detimport/core`

// EnvDirect reads the environment in the entry point itself.
func EnvDirect() string {
	return os.Getenv("MCS_FIXTURE") // want `os.Getenv in deterministic layer .*/detimport/core`
}

// EnvViaHelper reads it one frame down.
func EnvViaHelper() bool {
	return lookup()
}

func lookup() bool {
	_, ok := os.LookupEnv("MCS_FIXTURE") // want `os.LookupEnv in deterministic layer .*/detimport/core`
	return ok
}

// EnvAll reads the whole environment.
func EnvAll() int {
	return len(os.Environ()) + len(envAtInit) // want `os.Environ in deterministic layer .*/detimport/core`
}
