// A counting replacement of the global operator new, for tests that bound
// heap calls. Linking counting_new.cc into a test binary replaces every
// allocation form for that whole binary.
#ifndef TESTS_COUNTING_NEW_H_
#define TESTS_COUNTING_NEW_H_

#include <cstddef>

// Heap calls made through operator new, in any form, since the binary
// started.
size_t Allocations();

#endif  // TESTS_COUNTING_NEW_H_
