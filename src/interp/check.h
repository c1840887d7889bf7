// Run-time checks of the PF77 interpreter.
//
// interp_check / interp_check_msg raise the same InternalError as
// p_assert / p_assert_msg (condition text, file, line, message), but they
// are not fault-injection sites: injection fires only inside a pass
// scope, and no pass runs while a program executes, so the probe p_assert
// pays on every check could never fire here.  The interpreter evaluates
// these checks on every executed statement and array reference.
#pragma once

#include "support/assert.h"

#define interp_check_msg(cond, msg)                                         \
  do {                                                                      \
    if (!(cond)) [[unlikely]]                                               \
      ::polaris::detail::assert_failed(#cond, __FILE__, __LINE__, (msg));   \
  } while (0)

#define interp_check(cond) interp_check_msg(cond, "")
