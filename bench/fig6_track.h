// The TRACK NLFILT/300-style program of the Figure 6 reproduction
// (bench_fig6_pdtest), shared with the simulator golden
// (tests/data/sim_baseline.json) so both run exactly the same code.
#pragma once

namespace polaris::bench {

// 20 invocations; strides coprime to 2000 yield permutations (parallel),
// strides 10 and 15 collide (the 10% serial re-executions).
inline constexpr const char* kTrackSource =
    "      program track\n"
    "      parameter (np = 2000, ninv = 20)\n"
    "      real dat(np), nf(np)\n"
    "      integer key(np), st(ninv)\n"
    "      data st /7, 11, 13, 17, 19, 23, 10, 29, 31, 37, 41, 43,\n"
    "     &  47, 49, 15, 53, 59, 61, 67, 71/\n"
    "      do i = 1, np\n"
    "        dat(i) = mod(i*3, 97)*0.01\n"
    "        nf(i) = 0.0\n"
    "      end do\n"
    "      do s = 1, ninv\n"
    "        do i = 1, np\n"
    "          key(i) = mod(i*st(s), np) + 1\n"
    "        end do\n"
    "        do i = 1, np\n"
    "          nf(key(i)) = nf(key(i))*0.25 + dat(i)*0.5\n"
    "     &      + dat(mod(i + s, np) + 1)*0.125\n"
    "     &      + dat(mod(i*3 + s, np) + 1)*0.0625\n"
    "     &      + (dat(i)*0.5 + 0.25)*(dat(i)*0.125 + 0.5)\n"
    "        end do\n"
    "      end do\n"
    "      cks = 0.0\n"
    "      do i = 1, np\n"
    "        cks = cks + nf(i)\n"
    "      end do\n"
    "      print *, 'track', cks\n"
    "      end\n";

}  // namespace polaris::bench
