// The examples' entry point. A configuration error — an mls::Error such
// as MLS_MEM_* watermarks that do not order — prints its message to
// stderr and exits with status 2, instead of escaping main and aborting
// the process on an uncaught exception.
#pragma once

#include <iostream>

#include "common/check.h"

namespace mls::examples {

template <typename Body>
int run_main(const char* name, const Body& body) {
  try {
    return body();
  } catch (const Error& e) {
    std::cerr << name << ": " << e.what() << "\n";
    return 2;
  }
}

}  // namespace mls::examples
