#include "machine/paper_machines.h"

#include <map>
#include <string>

#include "machine/machine_builder.h"

namespace rstlab::machine::paper {

namespace {

constexpr int kAccept = 100;
constexpr int kReject = 101;
const std::vector<Move> kStay1 = {Move::kStay};
const std::vector<Move> kRight1 = {Move::kRight};
const std::vector<Move> kLeft1 = {Move::kLeft};

/// Hands out fresh state ids for named control points, so the generated
/// tables stay readable while staying clear of kAccept/kReject.
class StateNames {
 public:
  int operator()(const std::string& name) {
    auto [it, inserted] = ids_.emplace(name, next_);
    if (inserted) ++next_;
    return it->second;
  }

 private:
  std::map<std::string, int> ids_;
  int next_ = 200;
};

std::string FwdName(unsigned p, char section, unsigned d) {
  return std::string("F") + std::to_string(p) + section + std::to_string(d);
}

std::string BackName(unsigned p, bool forward_ok, char section,
                     unsigned e) {
  return std::string("B") + std::to_string(p) + (forward_ok ? "y" : "n") +
         section +
         std::to_string(e);
}

}  // namespace

MachineSpec Theorem8aFingerprint() {
  // Sections: 'v' (left of '$') and 'w' (right of '$'). Markers written
  // over cell 0 let the backward scan detect the left end: 'A' = marked
  // '0', 'Z' = marked '1', 'D' = marked '$'.
  const char B = kBlank;
  const unsigned primes[] = {3, 5};
  StateNames name;
  MachineBuilder b(1, 0);
  b.AddFinal(kAccept, true).AddFinal(kReject, false);
  const int start = name("start");
  b.SetStart(start);

  // Start: mark cell 0 and branch on the prime (the nondeterministic
  // "pick a random prime" of Theorem 8(a)). Empty input accepts.
  {
    auto on0 = b.On(start, "0");
    auto on1 = b.On(start, "1");
    auto onD = b.On(start, "$");
    for (unsigned p : primes) {
      on0.Go(name(FwdName(p, 'v', 0)), "A", kRight1);
      on1.Go(name(FwdName(p, 'v', 1 % p)), "Z", kRight1);
      onD.Go(name(FwdName(p, 'w', 0)), "D", kRight1);
    }
    b.On(start, std::string(1, B))
        .Go(kAccept, std::string(1, B), kStay1);
  }

  for (unsigned p : primes) {
    // Forward scan: accumulate d = digitsum(v) - digitsum(w) mod p.
    for (unsigned d = 0; d < p; ++d) {
      const int fv = name(FwdName(p, 'v', d));
      const int fw = name(FwdName(p, 'w', d));
      for (char c : {'0', '1'}) {
        const unsigned digit = static_cast<unsigned>(c - '0');
        b.On(fv, std::string(1, c))
            .Go(name(FwdName(p, 'v', (d + digit) % p)), std::string(1, c),
                kRight1);
        b.On(fw, std::string(1, c))
            .Go(name(FwdName(p, 'w', (d + p - digit) % p)),
                std::string(1, c), kRight1);
      }
      b.On(fv, "#").Go(fv, "#", kRight1);
      b.On(fw, "#").Go(fw, "#", kRight1);
      b.On(fv, "$").Go(fw, "$", kRight1);
      // Right end: the single reversal into the backward scan. A
      // missing '$' leaves the scan in section v; both cases carry the
      // forward verdict d == 0 into the backward states.
      b.On(fv, std::string(1, B))
          .Go(name(BackName(p, d == 0, 'w', 0)), std::string(1, B),
              kLeft1);
      b.On(fw, std::string(1, B))
          .Go(name(BackName(p, d == 0, 'w', 0)), std::string(1, B),
              kLeft1);
    }

    // Backward verification scan: re-accumulate e = digitsum(v) -
    // digitsum(w) mod p from the right; finalize at the cell-0 marker.
    for (bool ok : {false, true}) {
      for (unsigned e = 0; e < p; ++e) {
        const int bw = name(BackName(p, ok, 'w', e));
        const int bv = name(BackName(p, ok, 'v', e));
        for (char c : {'0', '1'}) {
          const unsigned digit = static_cast<unsigned>(c - '0');
          b.On(bw, std::string(1, c))
              .Go(name(BackName(p, ok, 'w', (e + p - digit) % p)),
                  std::string(1, c), kLeft1);
          b.On(bv, std::string(1, c))
              .Go(name(BackName(p, ok, 'v', (e + digit) % p)),
                  std::string(1, c), kLeft1);
        }
        b.On(bw, "#").Go(bw, "#", kLeft1);
        b.On(bv, "#").Go(bv, "#", kLeft1);
        b.On(bw, "$").Go(bv, "$", kLeft1);
        // Cell-0 markers end the scan: apply the marked digit (if any)
        // and accept iff both passes saw difference 0.
        for (const auto& [marker, digit] :
             std::map<char, unsigned>{{'A', 0}, {'Z', 1}, {'D', 0}}) {
          const unsigned final_e = (e + digit) % p;
          const int verdict = (ok && final_e == 0) ? kAccept : kReject;
          const std::string m(1, marker);
          b.On(bw, m).Go(verdict, m, kStay1);
          b.On(bv, m).Go(verdict, m, kStay1);
        }
      }
    }
  }
  return b.Build();
}

MachineSpec Theorem8aBatchFingerprint() {
  // Product automaton over both primes: every state carries the residue
  // pair (d mod 3, d mod 5). Cell-0 markers as in Theorem8aFingerprint:
  // 'A' = marked '0', 'Z' = marked '1', 'D' = marked '$'.
  const char B = kBlank;
  constexpr unsigned kP3 = 3;
  constexpr unsigned kP5 = 5;
  StateNames name;
  MachineBuilder b(1, 0);
  b.AddFinal(kAccept, true).AddFinal(kReject, false);
  const int start = name("start");
  b.SetStart(start);

  const auto fwd = [&name](char section, unsigned d3, unsigned d5) {
    return name(std::string("F") + section + std::to_string(d3) + "_" +
                std::to_string(d5));
  };
  const auto back = [&name](bool ok, char section, unsigned e3,
                            unsigned e5) {
    return name(std::string("B") + (ok ? 'y' : 'n') + section +
                std::to_string(e3) + "_" + std::to_string(e5));
  };

  // Start: mark cell 0. No prime branch — both residues ride along.
  b.On(start, "0").Go(fwd('v', 0, 0), "A", kRight1);
  b.On(start, "1").Go(fwd('v', 1, 1), "Z", kRight1);
  b.On(start, "$").Go(fwd('w', 0, 0), "D", kRight1);
  b.On(start, std::string(1, B)).Go(kAccept, std::string(1, B), kStay1);

  // Forward scan: accumulate d = digitsum(v) - digitsum(w) mod 3 and
  // mod 5 simultaneously.
  for (unsigned d3 = 0; d3 < kP3; ++d3) {
    for (unsigned d5 = 0; d5 < kP5; ++d5) {
      const int fv = fwd('v', d3, d5);
      const int fw = fwd('w', d3, d5);
      for (char c : {'0', '1'}) {
        const unsigned digit = static_cast<unsigned>(c - '0');
        b.On(fv, std::string(1, c))
            .Go(fwd('v', (d3 + digit) % kP3, (d5 + digit) % kP5),
                std::string(1, c), kRight1);
        b.On(fw, std::string(1, c))
            .Go(fwd('w', (d3 + kP3 - digit) % kP3,
                    (d5 + kP5 - digit) % kP5),
                std::string(1, c), kRight1);
      }
      b.On(fv, "#").Go(fv, "#", kRight1);
      b.On(fw, "#").Go(fw, "#", kRight1);
      b.On(fv, "$").Go(fw, "$", kRight1);
      // Right end: the single reversal. The forward verdict needs the
      // difference to vanish modulo BOTH primes.
      const bool ok = d3 == 0 && d5 == 0;
      b.On(fv, std::string(1, B))
          .Go(back(ok, 'w', 0, 0), std::string(1, B), kLeft1);
      b.On(fw, std::string(1, B))
          .Go(back(ok, 'w', 0, 0), std::string(1, B), kLeft1);
    }
  }

  // Backward verification scan, right to left.
  for (bool ok : {false, true}) {
    for (unsigned e3 = 0; e3 < kP3; ++e3) {
      for (unsigned e5 = 0; e5 < kP5; ++e5) {
        const int bw = back(ok, 'w', e3, e5);
        const int bv = back(ok, 'v', e3, e5);
        for (char c : {'0', '1'}) {
          const unsigned digit = static_cast<unsigned>(c - '0');
          b.On(bw, std::string(1, c))
              .Go(back(ok, 'w', (e3 + kP3 - digit) % kP3,
                       (e5 + kP5 - digit) % kP5),
                  std::string(1, c), kLeft1);
          b.On(bv, std::string(1, c))
              .Go(back(ok, 'v', (e3 + digit) % kP3, (e5 + digit) % kP5),
                  std::string(1, c), kLeft1);
        }
        b.On(bw, "#").Go(bw, "#", kLeft1);
        b.On(bv, "#").Go(bv, "#", kLeft1);
        b.On(bw, "$").Go(bv, "$", kLeft1);
        for (const auto& [marker, digit] :
             std::map<char, unsigned>{{'A', 0}, {'Z', 1}, {'D', 0}}) {
          const bool zero = (e3 + digit) % kP3 == 0 &&
                            (e5 + digit) % kP5 == 0;
          const int verdict = (ok && zero) ? kAccept : kReject;
          const std::string m(1, marker);
          b.On(bw, m).Go(verdict, m, kStay1);
          b.On(bv, m).Go(verdict, m, kStay1);
        }
      }
    }
  }
  return b.Build();
}

MachineSpec Theorem8bGuessVerify() {
  // States: 0 = at a field start (the guessing point), 1 = verifying
  // the guessed field, 2 = skipping an unguessed field.
  const char B = kBlank;
  MachineBuilder b(1, 0);
  b.SetStart(0).AddFinal(kAccept, true).AddFinal(kReject, false);
  for (char c : {'0', '1'}) {
    // The guess: verify this field, or skip it. Ordering puts "verify"
    // first, so choice index 0 is the eager certificate.
    b.On(0, std::string(1, c))
        .Go(1, std::string(1, c), kStay1)
        .Go(2, std::string(1, c), kStay1);
  }
  b.On(0, "#").Go(0, "#", kRight1);  // empty field: nothing to certify
  b.On(0, std::string(1, B)).Go(kReject, std::string(1, B), kStay1);

  b.On(1, "1").Go(1, "1", kRight1);
  b.On(1, "0").Go(kReject, "0", kStay1);  // wrong guess: this run dies
  b.On(1, "#").Go(kAccept, "#", kStay1);
  b.On(1, std::string(1, B)).Go(kAccept, std::string(1, B), kStay1);

  for (char c : {'0', '1'}) {
    b.On(2, std::string(1, c)).Go(2, std::string(1, c), kRight1);
  }
  b.On(2, "#").Go(0, "#", kRight1);
  b.On(2, std::string(1, B)).Go(kReject, std::string(1, B), kStay1);
  return b.Build();
}

}  // namespace rstlab::machine::paper
