"""Hypothesis profiles.  Tier-1 runs with hypothesis' defaults and each
test's own `@settings`; the `mutate` profile is chosen only by
`pytest --hypothesis-profile mutate`, for runs on a deliberately broken copy
of the code: the first falsifying example is enough there, so nothing is
shrunk (a broken Fraction once made a shrinking tier-1 run take over ten
minutes) and no example database is read or written."""

from hypothesis import Phase, settings

settings.register_profile("mutate", phases=[Phase.explicit, Phase.generate], database=None)
