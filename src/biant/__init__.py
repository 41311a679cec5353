"""Bidirectional action-sequence learning for long-term anticipation.

Train a small autoregressive model jointly on a forward task (observed
actions -> future actions) and its reversed twin, then anticipate futures
with forward-only constrained decoding and score them by normalized edit
distance per verb / noun / action axis, minimized over K candidates.
"""
