//===- Alphonsec.h - Running the alphonsec driver from tests ----*- C++ -*-===//
//
// Part of the Alphonse reproduction (Hoover, PLDI 1992).
// SPDX-License-Identifier: MIT
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs the alphonsec binary the test target depends on (ALPHONSEC_PATH),
/// for tests that drive the command line: its options, exit codes and
/// checkpoint files.
///
//===----------------------------------------------------------------------===//

#ifndef ALPHONSE_TESTS_INTERP_ALPHONSEC_H
#define ALPHONSE_TESTS_INTERP_ALPHONSEC_H

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace alphonse::testing {

/// Runs alphonsec on \p Path with \p Args, capturing both streams.
/// \returns the wait status; a crash shows as a signal, not an exit.
inline int runAlphonsec(const std::string &Path, const std::string &Args,
                        std::string &Out) {
  std::string Cmd =
      std::string(ALPHONSEC_PATH) + " " + Path + " " + Args + " 2>&1";
  FILE *P = ::popen(Cmd.c_str(), "r");
  EXPECT_NE(P, nullptr);
  if (!P)
    return -1;
  char Buf[512];
  while (size_t N = std::fread(Buf, 1, sizeof(Buf), P))
    Out.append(Buf, N);
  return ::pclose(P);
}

} // namespace alphonse::testing

#endif // ALPHONSE_TESTS_INTERP_ALPHONSEC_H
