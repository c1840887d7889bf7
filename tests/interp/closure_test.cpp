// Compiled statements (interp/closure.h) against the walker.  Each program
// below takes a guard path: a Value whose kind differs from the declared
// type (a real actual behind an integer formal, COMMON members declared
// with different types) or a speculative statement with more shadowed
// reads than a fixed buffer would hold.  The expected output, cost units,
// statement counts and PD-test figures are what the expression walker
// alone produced for the same programs, before statements were compiled.
#include <gtest/gtest.h>

#include <sstream>

#include "interp/interp.h"
#include "parser/parser.h"

namespace polaris {
namespace {

/// Everything a run reports, on one line.
std::string summary(const RunResult& r) {
  std::ostringstream os;
  for (const std::string& line : r.output) os << line << " | ";
  os << "serial=" << r.clock.serial << " parallel=" << r.clock.parallel
     << " statements=" << r.statements
     << " parallel_instances=" << r.parallel_instances
     << " spec=" << r.speculative_attempts << "/" << r.speculative_failures
     << " pd=" << r.pd_test_cost << " wasted=" << r.speculative_wasted;
  return os.str();
}

std::string run_summary(Program& p) { return summary(run_program(p)); }

TEST(ClosureTest, RealActualBehindIntegerScalarFormal) {
  auto p = parse_program(
      "      program t\n"
      "      real x\n"
      "      x = 2.5\n"
      "      call sub(x)\n"
      "      print *, x\n"
      "      end\n"
      "      subroutine sub(n)\n"
      "      integer n\n"
      "      m = n + 1\n"
      "      k = n * 2\n"
      "      if (n .gt. 2) then\n"
      "        print *, 'gt', m, k\n"
      "      end if\n"
      "      do i = 1, n\n"
      "        m = m + i\n"
      "      end do\n"
      "      print *, m, i\n"
      "      n = n + 1\n"
      "      end\n");
  EXPECT_EQ(run_summary(*p),
            "gt 3 5 | 6 3 | 3 | serial=56 parallel=56 statements=13 "
            "parallel_instances=0 spec=0/0 pd=0 wasted=0");
}

TEST(ClosureTest, RealActualBehindIntegerArrayFormal) {
  auto p = parse_program(
      "      program t\n"
      "      real a(4)\n"
      "      do i = 1, 4\n"
      "        a(i) = i * 1.5\n"
      "      end do\n"
      "      call sub(a)\n"
      "      print *, a(1), a(2), a(3), a(4)\n"
      "      end\n"
      "      subroutine sub(b)\n"
      "      integer b(4)\n"
      "      s = 0.0\n"
      "      do i = 1, 4\n"
      "        s = s + b(i)\n"
      "        b(i) = b(i) + 1\n"
      "        s = s + b(i)\n"
      "      end do\n"
      "      if (b(2) .gt. 3) then\n"
      "        print *, 'big', b(2)\n"
      "      end if\n"
      "      print *, s\n"
      "      end\n");
  EXPECT_EQ(run_summary(*p),
            "big 4 | 33 | 2 4 5 7 | serial=130 parallel=130 statements=25 "
            "parallel_instances=0 spec=0/0 pd=0 wasted=0");
}

TEST(ClosureTest, LogicalActualBehindIntegerSubscript) {
  // The walker rejects a logical integer formal in a subscript, in both
  // the affine forms (`b(n)`, `b(n + 1)`) and a general one (`b(2 * n)`);
  // arithmetic on it fails as a real operand.
  const std::pair<const char*, const char*> cases[] = {
      {"n", "logical used as integer"},
      {"n + 1", "logical used as real"},
      {"2 * n", "logical used as real"}};
  for (const auto& [subscript, message] : cases) {
    auto p = parse_program(
        "      program t\n"
        "      logical l\n"
        "      l = .true.\n"
        "      call sub(l)\n"
        "      end\n"
        "      subroutine sub(n)\n"
        "      integer n\n"
        "      real b(4)\n"
        "      b(" + std::string(subscript) + ") = 1.0\n"
        "      end\n");
    try {
      run_program(*p);
      ADD_FAILURE() << "no error for b(" << subscript << ")";
    } catch (const InternalError& e) {
      EXPECT_NE(std::string(e.what()).find(message), std::string::npos)
          << e.what();
    }
  }
}

TEST(ClosureTest, CommonMembersDeclaredWithDifferentTypes) {
  auto p = parse_program(
      "      program t\n"
      "      common /c/ x, n\n"
      "      x = 1.5\n"
      "      n = 3\n"
      "      call sub\n"
      "      print *, x, n\n"
      "      y = x * n\n"
      "      print *, y\n"
      "      end\n"
      "      subroutine sub\n"
      "      integer x\n"
      "      real n\n"
      "      common /c/ x, n\n"
      "      y = x + n\n"
      "      x = x + 1\n"
      "      n = n * 2\n"
      "      if (x .lt. n) then\n"
      "        print *, 'lt'\n"
      "      end if\n"
      "      print *, y, x, n\n"
      "      end\n");
  EXPECT_EQ(run_summary(*p),
            "lt | 4.5 2 6 | 2 6 | 12 | serial=52 parallel=52 statements=13 "
            "parallel_instances=0 spec=0/0 pd=0 wasted=0");
}

TEST(ClosureTest, MixedKindsAndIntrinsicsMatchTheWalker) {
  auto p = parse_program(
      "      program t\n"
      "      integer i, j, k\n"
      "      real x, y\n"
      "      logical l\n"
      "      i = 7\n"
      "      j = -3\n"
      "      x = 2.5\n"
      "      y = -0.75\n"
      "      k = i / j + mod(i, j) + i ** 2 + abs(j) + sign(i, j)\n"
      "      x = x + i / 2 + y ** 2 + x ** i + 2.0 ** 0.5\n"
      "      y = max(i, j, 4) + min(x, y, 1.0) + max(i, x) + mod(x, 0.7)\n"
      "      k = k + int(x) + nint(y) + int(-2.7) + nint(-2.5)\n"
      "      y = y + sqrt(x) + exp(y / 100.0) + log(x) + log10(x)\n"
      "      y = y + sin(x) + cos(y) + tan(0.3) + atan(x) + atan2(y, x)\n"
      "      y = y + real(i) + dble(k) + abs(y) + sign(x, -1.0)\n"
      "      k = k + iand(i, 12) + ior(i, 8) + ieor(i, j) - (-k)\n"
      "      l = (i .gt. j .and. x .le. y) .or. .not. (k .eq. 3)\n"
      "      if (l .and. i .ne. j) then\n"
      "        print *, 'l', l\n"
      "      else if (x .ge. 0.0) then\n"
      "        print *, 'x'\n"
      "      end if\n"
      "      do i = int(x) - 10, k / 20, max(j + 5, 1)\n"
      "        x = x - i * 0.5\n"
      "      end do\n"
      "      print *, i, j, k, x, y, l\n"
      "      end\n");
  EXPECT_EQ(run_summary(*p),
            "l T | 607 -3 2575 617.828276 3027.16006 T | serial=669 "
            "parallel=669 statements=19 parallel_instances=0 spec=0/0 pd=0 "
            "wasted=0");
}

TEST(ClosureTest, ArraysOfRankFourAndFive) {
  // Ranks above 3 take the element code that reads the rank from the node.
  auto p = parse_program(
      "      program t\n"
      "      real a(2, 3, 2, 2), b(2, 2, 2, 2, 3)\n"
      "      integer m(2, 2, 2, 2)\n"
      "      do l = 1, 2\n"
      "        do k = 1, 2\n"
      "          do j = 1, 3\n"
      "            do i = 1, 2\n"
      "              a(i, j, k, l) = i + 10 * j + 100 * k + 1000 * l\n"
      "              b(i, k, l, 3 - i, j) = a(i, j, k, l) * 0.5\n"
      "              m(i, k, l, 1 + mod(j, 2)) = i * j - k * l\n"
      "            end do\n"
      "          end do\n"
      "        end do\n"
      "      end do\n"
      "      s = a(2, 3, 2, 2) + b(1, 2, 1, 2, 3) + m(2, 1, 2, 2)\n"
      "      if (a(1, 2, 1, 2) .gt. b(2, 2, 2, 1, 1)) then\n"
      "        print *, 'gt'\n"
      "      end if\n"
      "      print *, s, a(1, 1, 1, 1), b(2, 1, 1, 1, 2), m(1, 2, 2, 1)\n"
      "      end\n");
  EXPECT_EQ(run_summary(*p),
            "gt | 2851.5 1111 561 -2 | serial=1610 parallel=1610 "
            "statements=96 parallel_instances=0 spec=0/0 pd=0 wasted=0");
}

TEST(ClosureTest, RealTypedDoIndices) {
  // `d` and `e` are implicitly real, but a DO stores integers into its
  // index: `d` holds a real only before its loop, `e` again after it is
  // assigned.
  auto p = parse_program(
      "      program t\n"
      "      real a(3, 3)\n"
      "      y = d + e\n"
      "      do d = 1, 2\n"
      "        do i = 1, 3\n"
      "          a(i, d) = i * 10 + d\n"
      "          a(i, d + 1) = a(i, d) * 0.5 + d\n"
      "        end do\n"
      "      end do\n"
      "      z = a(2, d - 1) + d * 0.5\n"
      "      if (d .eq. 3) then\n"
      "        print *, 'd3'\n"
      "      end if\n"
      "      do e = 1, 3\n"
      "        a(e, 1) = a(e, 2) + e\n"
      "      end do\n"
      "      e = e * 0.75\n"
      "      w = a(e, 3) + e\n"
      "      print *, y, z, d, e, w, a(1, 1), a(3, 2), a(2, 3)\n"
      "      end\n");
  EXPECT_EQ(run_summary(*p),
            "d3 | 0 23.5 3 3 21 13 32 13 | serial=186 parallel=186 "
            "statements=27 parallel_instances=0 spec=0/0 pd=0 wasted=0");
}

/// `a(i) = <first> + a(<base> + 1) + ... + a(<base> + reads)`, continued
/// over as many lines as it takes.
std::string long_read_statement(const std::string& first,
                                const std::string& base, int reads) {
  std::string s = "        a(i) = " + first;
  for (int m = 1; m <= reads; ++m)
    s += "\n     &    + a(" + base + " + " + std::to_string(m) + ")";
  return s + "\n";
}

TEST(ClosureTest, SpeculativeStatementsMarkInWalkerOrder) {
  // Speculative loops over `a`.  The first two read 70 shadowed elements
  // per statement: the first only elements no iteration writes (the PD
  // test passes), the second what later iterations write (it fails and
  // the loop re-executes serially).  The third reads each element before
  // writing it, and two iterations write each element: the reads make it
  // fail, so marking the write before the read would let it pass.
  auto p = parse_program(
      "      program t\n"
      "      real a(300)\n"
      "      do i = 1, 300\n"
      "        a(i) = i * 0.5\n"
      "      end do\n"
      "      do i = 1, 100\n" +
      long_read_statement("a(i)", "200", 70) +
      "      end do\n"
      "      do i = 1, 100\n" +
      long_read_statement("0.0", "i", 70) +
      "      end do\n"
      "      do i = 1, 100\n"
      "        a(mod(i, 50) + 1) = a(mod(i, 50) + 1) * 0.5 + 1.0\n"
      "      end do\n"
      "      s = 0.0\n"
      "      do i = 1, 300\n"
      "        s = s + a(i) * 0.001\n"
      "      end do\n"
      "      print *, s\n"
      "      end\n");
  Symbol* a = p->main()->symtab().lookup("a");
  ASSERT_NE(a, nullptr);
  int loop = 0;
  for (Statement* s = p->main()->stmts().first(); s; s = s->next()) {
    if (s->kind() != StmtKind::Do) continue;
    ++loop;
    if (loop == 1 || loop == 5) continue;
    ParallelInfo& par = static_cast<DoStmt*>(s)->par;
    par.speculative = true;
    par.speculative_arrays.push_back(a);
  }
  ASSERT_EQ(loop, 5);
  EXPECT_EQ(run_summary(*p),
            "17117.5813 | serial=59102 parallel=57834 statements=1107 "
            "parallel_instances=0 spec=3/2 pd=4993 wasted=12508");
}

}  // namespace
}  // namespace polaris
