"""Symbolic calculator and certificate-producing decision engine for
countable linear order types (plus the order type of the real line).

Subpackages:

- ``ordinals``  -- exact Cantor-normal-form arithmetic below epsilon_0
- ``finite``    -- brute-force oracle on explicit finite chains
- ``terms``     -- symbolic term grammar, parser/printer, normalization
- ``points``    -- computable point-level presentation of terms
- ``analysis``  -- structural facts (size, countability, scatteredness,
  Hausdorff rank)
- ``fprofile``  -- finite-condensation class profiles
- ``engine``    -- three-valued inference engine with replayable certificates
- ``condense``  -- condensation constructions (F, E_Y, self-similar)
- ``hierarchy`` -- regular unbounded sums / shuffles and their witnesses
- ``game``      -- flip/strategy machinery for the bit-sequence game
- ``cli``       -- the ``ordtypes`` command-line front end
"""

__version__ = "0.1.0"
