package core

import "amjs/internal/machine"

// DependentMachine exports dependentMachine to the external test
// package, which can drive whole simulations.
func DependentMachine(m machine.Machine) machine.Machine { return dependentMachine{m} }
