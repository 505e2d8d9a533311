// Package cpufeat reports the x86 vector extensions the repository's
// assembly bodies need, from one CPUID probe at start-up. Both flags also
// require that the OS saves YMM state across context switches (OSXSAVE
// and XCR0 bits 1 and 2), so a true flag means the instructions are safe
// to execute. Off amd64 both are false.
package cpufeat
