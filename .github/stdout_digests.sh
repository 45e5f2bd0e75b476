#!/usr/bin/env bash
# Run each command of the table below under bash and compare the sha256 of
# its stdout and its exit code with the row.  A row is
#   <sha256> <exit code> <command>
# and lines that start with # are comments.  Every row is run, and the
# script ends with one line `N rows, M differ`; it exits 1 if any row
# differs, and 2 when `sx` is not on PATH.  Usage, from the root of the
# repository with `sx` on PATH:  bash .github/stdout_digests.sh
set -u
if ! command -v sx > /dev/null; then
  echo "stdout_digests.sh: sx is not on PATH; install the package (pip install -e .) first" >&2
  exit 2
fi
out=$(mktemp)
trap 'rm -f "$out"' EXIT
rows=0
differ=0
while read -r sha code cmd; do
  case "$sha" in '' | '#'*) continue ;; esac
  bash -c "$cmd" < /dev/null > "$out"
  got_code=$?
  got_sha=$(sha256sum < "$out" | cut -d' ' -f1)
  echo "$cmd: exit $got_code, sha256 $got_sha"
  rows=$((rows + 1))
  bad=0
  if [ "$got_code" -ne "$code" ]; then echo "  expected exit $code"; bad=1; fi
  if [ "$got_sha" != "$sha" ]; then echo "  expected sha256 $sha"; bad=1; fi
  differ=$((differ + bad))
done <<'TABLE'
# move order and search outputs, recorded before the move enumerators and
# the stellatedness search moved onto facet masks
e56d9be3bae28e4b9448d4a66752071f93802be32ec85be293446ea7736d42a9 0 sx flips --lo 0 --hi 3 fixtures:bl_sigma3_16
ab31b0e101629a19b3b47479c5fbb8deeedacca96b01355dd7772c6b9497ab9c 0 sx generate cross-polytope 3 | sx flips --lo 0 --hi 3 -
0c5bc6ad7c15a3a1aa9d35d4a7c1c9a9070d2afa6463c3e0ee2a45ddd1e06fa2 0 sx certify stellated -k 2 fixtures:lutz_s3_8
f48de3a1f8aff75dcb795ab74b239cc6149b738f8f72194081cee2727dd39461 2 sx certify stellated -k 3 --budget-nodes 300 fixtures:bl_sigma3_16
# the paths that replay, recorded before replay and the move checks moved
# onto facet masks: criterion 5 replays the printed shelling, criterion 7
# runs apply_* and the ball lift
f63b7db37ec523ab60a983d6cb81e4b60d4210b6799aaed19bb2da062f1ee0cc 0 sx verify-paper --seed 0 --criteria 5,7
56c4a669835daccc0d8c58093e29bfccb821462472fc312739071eb0e53377d1 0 sx certify stellated -k 1 fixtures:ziegler_s2_10
# the searches the move tables feed, recorded before the move lists were
# kept in step with the facets: index 0 with fresh labels, index 2 and up,
# and a budget cut on mixed labels
ef2a3ba5970425d35fc2f6c2957b0ef3617424c3fc0c0499d7b8bd2de1572bfe 0 sx certify stellated -k 4 fixtures:dfm_s3_16
8fa6bd5e94f086b24d95b573687109beffe75cbb35e21565c083808f80d68d4f 0 sx certify stellated -k 2 fixtures:ziegler_s3_10
84b80c3890e4f49383ddba07854f442a40b106d130da97ce0fcfc7f7eb71d405 2 sx certify stellated -k 3 --budget-nodes 2000 fixtures:bl_sigma3_16
# the shelling search, recorded before it memoised each facet's attachment:
# a refutation, a budget cut, a proof, and criterion 4
68234d4c2975f9ff05a6d032dd08ae6dded08e76244a5b83d4244dd8b6eaa925 1 sx certify shelled -k 3 fixtures:ziegler_b2
34b7aca922bc05782f03d0e8d79f5ef370b69e68c108c39666631bf056f493f9 2 sx certify shelled -k 3 --budget-nodes 3000 fixtures:dfm_b4_16
0a831f8dd82128b4f8d2b7d6168dc87953d75cfcbb7a20d348421226363d73c6 0 sx certify shelled -k 2 fixtures:lutz_b2
c20687121a83fb8d228ac0c2e4ff484b217e533a580c6d854445eda9a01fc1cd 0 sx verify-paper --seed 0 --criteria 4
# two complete shelling searches, recorded before each state's moves were
# derived from its parent's: REFUTED after 8620 and 3604 nodes, counts that
# a change in the order of the children would move
9dc67a987deff813eef1bf1873b59af0e060aa72945eb1d4bb8da6929b3e3202 1 sx certify shelled -k 3 fixtures:lutz_s3_8
46d8301dd208dc5e63d4ec0eadf353dbebef450905307fb29680d6d50194bb04 1 sx certify shelled -k 1 fixtures:ziegler_s3_10
# tightness outputs, recorded before tightness moved from induced boundary
# ranks to relative Betti numbers on the facet masks
ce86d7426fa8c5babcd7d5519f1243517f72a5b75074354aa4f2c8ade3c415e3 1 sx certify tight --field 2 fixtures:lutz_b1
7f5067d40c7cec16977e7048b3f1900f12f7615308b77ff9f187352976bd0a16 0 sx generate standard-sphere 3 | sx certify tight --field 0 -
14ad254567372270a5b27aec89d6e07d9e202907e0b5e5a18fe7b321b51f78d4 0 sx verify-paper --seed 0 --criteria 9
# face lattice outputs, recorded before the frozenset face lattice, ridge
# map and label stars gave way to one lattice on the facet masks:
# f-vectors, an interior-face witness, face counts, the closure of a
# neighborly sphere, a ball's flags, and the paper criteria that read faces
# and boundaries
c547367bec6b4df29a29118c3feedc505c16d75ed47042623a2953ffd73b3eeb 0 sx info fixtures:d7_19
49681b68455fc85092668b9de9539ca33f647c416d424604be0156cbb7d09439 1 sx stacked -k 1 fixtures:d6_18
da674ff4bb32c11865b73373f00a0800fa7910f66ee6b32007d2620ca881cce9 0 sx stacked -k 2 fixtures:d6_18
ff0fa986a6dd626cd91cfb3b0433a728e472f5e2b75a6e69281900fb05ae496f 1 sx stacked -k 1 fixtures:dfm_s3_16
caccf1a0a9d466521862c937c1522009cab564c1cb2630da31aa5b2741cf5ab9 0 sx classify fixtures:ziegler_b2
ddd63639bffda83abd3565f6777525176407ce56feccdb4a08c2819812239a9b 0 sx verify-paper --seed 0 --criteria 1,2,3,6,8,10
# the commands the homology screens decide, recorded before the screens
# dropped their collapse-first branch for one reduction of the face
# lattice (stacked -k 2 fixtures:d6_18, stacked -k 1 fixtures:dfm_s3_16
# and certify stellated -k 1 fixtures:ziegler_s2_10 are pinned above);
# the collapse rows were recorded once the collapse ran on that lattice,
# with live flags and live-coface counts
fdcae1ae4b6d429ab97e8241a9f15f10ce0d51afcff759ef11c35b95a9d26d6a 0 sx stacked -k 2 fixtures:dfm_b4_16
7c5d56e246f64865546b905a9f9cdaf92fa22d1bf8a7643d5b5e468e89d196c3 1 sx certify stellated -k 2 fixtures:bl_sigma3_16
5199313d766860711c8981df826198adf46fd1ec86d3690bac8c73a7a1beec5a 0 sx certify ears fixtures:lutz_b2
0cbed6fa59345f099a56846bc8263c3bd53b19c0fefe3edfff0f209a3f99b363 0 sx certify class-k -k 1 fixtures:lutz_s3_8
564ffc5c7b5dee018a284861547f9509ab85cf10bb8029453aa2c50f9e561a53 0 sx verify-paper --criteria 3,8,10
864224b0a8fdd90f89d65bcbce185f99dd7de415f1494811c7aaf6560a25757d 0 sx certify collapsible fixtures:ziegler_b2
317b2a0506857981a15b7bf81b6d23b81d040075f1a0d44bb7cb045f54d2ed08 0 sx certify collapsible fixtures:d4_16
2811b554e98fd1f39c53e36c960dc159e10e3444057fd2f2222dce93c9e1e6e2 2 sx certify collapsible fixtures:lutz_s2_8
# stackedness paths, recorded before the interior faces were read off the
# ball's own lattice and the k = 1 path screened each sphere once; a
# candidate ball given with a ball is a usage error with nothing on stdout
039e22ca74140973304072b7d1dc7fabeb6e4d9d0051fe39d5484132d2d8c257 0 sx verify-paper --seed 0 --criteria 7
00f4a9ab50b9ce655d042b5d062daf8fc97b08e08b2e60d8242816824a2d1169 0 sx stacked -k 2 fixtures:s5_18
72835ef06e09fb1478486d3c8c650736b1da255868a4aa5a1334c2273dc7fa1a 0 sx certify stellated -k 1 fixtures:lutz_s2_8
c34cd349b2b46ec18adbd44d7c1f1ae82f287e108a0bf7b6c4c5ef69b910e072 1 sx stacked -k 0 fixtures:lutz_b2
ff0fa986a6dd626cd91cfb3b0433a728e472f5e2b75a6e69281900fb05ae496f 1 sx stacked -k 1 fixtures:ziegler_s3_10
e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 64 sx stacked -k 1 --candidate fixtures:lutz_b1 fixtures:lutz_b2
# the vertex ball at k = d, recorded before it and the caller's candidate
# were judged by the one bounding-ball check; the candidate row was
# recorded after, as a proved candidate no longer repeats the screen's note
9bd63bd5daace5e0b564f27b80dadce3073b85e1b234e0a260f0ec5a172243f2 0 sx stacked -k 3 fixtures:ziegler_s3_10
34e6c289d23172bb9002421eadc52a4c1f918277295d5b6f80751fb7fcdca567 0 sx stacked -k 2 fixtures:lutz_s2_8
b4383aa986284e325fe21cd84f927daadb2a2a6cd91ed08c0a95dd4b5d0ab093 0 sx stacked -k 2 --candidate fixtures:dfm_b4_16 fixtures:dfm_s3_16
# verdicts that CI steps of their own once checked by exit code alone,
# pinned here with their stdout: stellatedness of the unflippable sphere
# (k = 4 is pinned above), 1-stackedness, and torsion-sensitive homology of
# RP^2 and s6_19 (the collapse rows and stacked -k 1 fixtures:d6_18 are
# pinned above); and the search on string labels at index 0, recorded
# before the move order was read off each move's own labels
7c5d56e246f64865546b905a9f9cdaf92fa22d1bf8a7643d5b5e468e89d196c3 1 sx certify stellated -k 3 fixtures:dfm_s3_16
d94e134ddbc56b7e00aa0f477291b364534f3f8463a95446c714ff2fe2055dc2 0 sx certify one-stacked fixtures:ziegler_b1
f37247f92fc822cdf36e508f572ca52a6d49456af354a2dcd644e190bf988c5a 1 sx certify one-stacked fixtures:ziegler_b2
cbb56c509b653e75a2fab6fd380102e7525d394eaafd297d7beb79ae96836912 1 sx generate standard-sphere 0 | sx certify one-stacked -
d232d302efa31cc7ed2b68e95c45bb3584cc6088a4fc6f92c331bc3cd2b05522 0 printf '1 2 3\n1 2 4\n1 3 5\n1 4 6\n1 5 6\n2 3 6\n2 4 5\n2 5 6\n3 4 5\n3 4 6\n' | sx homology --field 2 -
ed3682acc7e636c5cca54679c293d83d5bb357d84f09fdceb7f8a6b2fc019d7f 0 printf '1 2 3\n1 2 4\n1 3 5\n1 4 6\n1 5 6\n2 3 6\n2 4 5\n2 5 6\n3 4 5\n3 4 6\n' | sx homology --field 0 -
8c517c095ac7604a011a7e2462678bc6f49136bb521d9dda56180f29a998e4d5 0 sx homology --field 3 fixtures:s6_19
d428fa36e6f3b858b3cb875eb69bf8f69f8675f80d6c46377191fcf6f31abdf1 0 sx generate cross-polytope 3 | sx certify stellated -k 4 --budget-nodes 2000 -
# homology relative to a vertex star, recorded before betti and the
# screens reduced only the faces outside the closed star of the vertex in
# the most facets: a sphere whose star leaves a residual, a cone whose star
# leaves nothing, three points, a complex that is not pure, and F5
b937b68ee54fe66b738dac3e73261109be99624ad272dedd2a624d1db615b2ca 0 sx homology --field 0 fixtures:s6_19
f5cc4b64d407d04314bf5bce322b89b04258f2b98b9abd849248288cd62469ab 0 sx homology --field 2 fixtures:s6_19
6a9f84505d18c0d717ef851fb781f1037b11e0dc50628acdaaf44d9189d737ec 0 sx homology --field 2 fixtures:d7_19
c462630facc56028efbf4efd59b5d357d7c304a2f1c0dd24e64f46077282ae28 0 sx homology --field 0 fixtures:bl_sigma3_16
7c650b09771ad54246c09ee98d89c228af950ff71a6479851dbb4b5ebf272e4b 0 printf '1\n2\n3\n' | sx homology --field 0 -
cf2e819091b5797c16a661700432c6fc6f68919ea4011f3971412cf599a7d22f 0 printf '1 2 3\n3 4\n5\n' | sx homology --field 2 -
44173a3d5454e7d421362253239d2a3069afbab3efd78124df9654055ea1ac4c 0 sx homology --field 5 fixtures:lutz_b1
# tightness on relative lattices, recorded before the induced subcomplexes
# and the pairs were reduced from the faces outside a subcomplex alone: the
# 7-vertex torus over F2 and Q, a complex that is not pure, and the Betti
# formula on fewer than k + 3 vertices, an input error with nothing on stdout
5c9613c055eaf330304d6d36748b42c464467c6f8924be6b6446c266357e4b25 0 printf '1 2 4\n2 3 5\n3 4 6\n4 5 7\n5 6 1\n6 7 2\n7 1 3\n1 3 4\n2 4 5\n3 5 6\n4 6 7\n5 7 1\n6 1 2\n7 2 3\n' | sx certify tight --field 2 -
5c9613c055eaf330304d6d36748b42c464467c6f8924be6b6446c266357e4b25 0 printf '1 2 4\n2 3 5\n3 4 6\n4 5 7\n5 6 1\n6 7 2\n7 1 3\n1 3 4\n2 4 5\n3 5 6\n4 6 7\n5 7 1\n6 1 2\n7 2 3\n' | sx certify tight --field 0 -
da5d5205b9710f85d2abfe2c8852160c3a8c035808fa141a62fba86e8162483f 1 printf '1 2 3\n3 4\n5\n' | sx certify tight --field 2 -
e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 69 sx generate standard-sphere 1 | sx certify beta -k 1 -
# ear lists, recorded before ears were decided by the restriction-face rule
# instead of ball recognition and a shelling search: two 3-balls with no
# ears, and a 5-ball with three (lutz_b2's one ear is pinned above)
a396e060f31dc702fc05162834e2a63fb346fac6373970754601e3aa86d910e0 0 sx certify ears fixtures:ziegler_b2
a396e060f31dc702fc05162834e2a63fb346fac6373970754601e3aa86d910e0 0 sx certify ears fixtures:dfm_b4_16
f5b121719172ec574473059fde650bed29ee67199ed3ce8a046421c8f00de187 0 printf '1 2 3 4 5 6\n1 2 3 4 5 9\n1 2 4 5 6 7\n1 3 4 5 6 8\n' | sx certify ears -
# the corpus, recorded before the fixtures moved from one chain of name
# tests to one table of builders: every name, kind and provenance in
# registry order, the printed shelling certificate, and the ball that
# drops the stacked hemisphere from Ziegler's sphere
2bc793b194c34babc5c393d9b8fb10fffb54fdd4bddb9de084546de231924137 0 sx fixtures list
565ac3b236953e3b0b1ae71af61fedad18dc121ed68718a28895f4b04912cae2 0 sx fixtures export lutz_b2_shelling_cert
bdc6145cbb3fdb686d34c05e1b4366a01e8bb2ad709a3b409aba14872b473cfb 0 sx fixtures export ziegler_b2 - --format json
# symmetry outputs, recorded before each search node refined only its
# right side against the trace of the leftmost path: group orders,
# generators in the order found and orbits, an isomorphism and a
# non-isomorphism, and the class-W check that reads one link per orbit
3d50950ebf5d6dcc818bf616031099d41046f328fc72c191b6e7241f8444918b 0 sx aut fixtures:s6_19
4549035f3123d2aa5e9c786e688d20151727210c88c84eee75153ba3900c3b66 0 sx aut fixtures:dfm_s3_16
0a8ed5d293a30d68793b224a9b56ab0bbe9f2bcddcebb0bcbad3923bee07914e 0 sx generate klee-novik 2 5 | sx aut -
84ba4740093f448bfebdd93427d68c9f663e745c52a4f6ae342f7b51d6492b2f 0 sx generate klee-novik 3 6 | sx aut -
8969b78d6a546a61ddf353dbc95229ff520ec76d1f9ed55add88dbad25766fbc 0 sx iso fixtures:dfm_s3_16 fixtures:dfm_s3_16
ac2465d69bcddc9a1d211649dcd65be51d23bb65464bffb63c5e5773dc9e4a64 1 sx iso fixtures:bl_sigma3_16 fixtures:dfm_s3_16
1c7f0ecee0b670061f8a0aabe3811df469e9499ab68d09623b1e2f814c1a7aad 0 sx generate klee-novik 1 4 | sx certify class-w -k 1 -
# stellatedness at k = 1, recorded before k = 1 moved from the closure
# ball and its dual-tree certificate to the reverse-move search: the
# closure proof that `stacked` keeps and the k = 2 verdict that k = 1 will
# print on the same sphere, which must not change, and two closure
# refutations, which will.  Those two, and the k = 1 rows of ziegler_s2_10,
# lutz_s2_8 and class-w above, were recorded again after that change: k = 1
# verdicts take the k >= 2 shape, with the search's nodes and no screen note
cb033445af834e5684217b489e15104b33111f1fa7f40ee2f82d9ce0b6bceb07 0 sx stacked -k 1 fixtures:ziegler_s2_10
72835ef06e09fb1478486d3c8c650736b1da255868a4aa5a1334c2273dc7fa1a 0 sx certify stellated -k 2 fixtures:lutz_s2_8
5d218db1e96ef749593739ff043151a10f96e8e9dc2da44eb49a13181a4d0bc8 1 sx certify stellated -k 1 fixtures:bl_sigma3_16
5d218db1e96ef749593739ff043151a10f96e8e9dc2da44eb49a13181a4d0bc8 1 sx generate cross-polytope 3 | sx certify stellated -k 1 -
# shelling and stacking at k = 1, recorded before the dual-tree test gated
# the shelling search and the vertex-removal path replaced the closure in
# `stacked -k 1`: a budget cut and a search refutation that the gate will
# answer by its lemma, a proof that must not change, a closure refutation
# and a closure proof, and the class-K check that reads the
# links' stackedness.  The first two and the s6_19 row, and the rows
# `certify shelled -k 1 fixtures:ziegler_s3_10`, `stacked -k 1
# fixtures:dfm_s3_16` and `stacked -k 1 fixtures:ziegler_s3_10` above, were
# recorded again after that change: each refutation names the lemma it
# rests on
a3ffb319102da11ee3db0aee6cd10db9d2ddd1e15c3324f677b2609cf818d22e 1 sx certify shelled -k 1 fixtures:d4_16
e8f3b69ec2668150f96123b35b7f18744a155b952e8d4233715a71d7b992c192 1 sx certify shelled -k 1 fixtures:lutz_b2
b8ee01c1107391a4ba59c8dc14976eb9fdbc95de5530c88ee08e16c7cd2bdbd5 0 sx certify shelled -k 1 fixtures:lutz_b1
ff0fa986a6dd626cd91cfb3b0433a728e472f5e2b75a6e69281900fb05ae496f 1 sx stacked -k 1 fixtures:s6_19
1e5322338451800de400af7cc4512a5ad9a18bc0d1a9d6d22dfb0a6baf946b2b 0 sx stacked -k 1 fixtures:lutz_s2_8
4ce0acf28d77302bfb6a529c6694500068286939ebf780b799da49dcafd94afe 0 sx generate klee-novik 1 4 | sx certify class-k -k 1 -
# narrow move listings, recorded before the move tables held only the
# index range listed from them: index 2 and up with no index-0 entry,
# index 1..2 on mixed labels, index 0 alone with no span, and the growers
# and searches of criterion 7 at a second seed
954f0c6330e7fb2c7e66bd826c16f3fca0f63fe9fc980b923aa7470d0ecdfc9a 0 sx flips --lo 2 --hi 3 fixtures:ziegler_s3_10
3094830d18768fc89c0dea0cc41567c1d95150dd37b2c56776d92c148ca61544 0 sx flips --lo 1 --hi 2 fixtures:bl_sigma3_16
f947b95e993239e14bc088a76893b64ce3cac677b5bcf7b7e26a2676b47d4fb4 0 sx flips --lo 0 --hi 0 fixtures:dfm_s3_16
43e180f2da1edd4c7135147acf3674368d66192bffe9a44efdea1543b57ace24 0 sx verify-paper --seed 1 --criteria 7
# classification and boundaries, recorded before the flags and the
# boundary were read off one ridge table on the facet masks and normality
# visited closed faces only: a ball whose faces mostly have cone links, a
# manifold with boundary, a weak pseudomanifold that is not normal (the
# link of edge 34 has two components), and the ear scan that reads the rim
caccf1a0a9d466521862c937c1522009cab564c1cb2630da31aa5b2741cf5ab9 0 sx classify fixtures:d7_19
caccf1a0a9d466521862c937c1522009cab564c1cb2630da31aa5b2741cf5ab9 0 sx generate klee-novik-bar 2 5 | sx classify -
b8ad9a5af4af6c5d0eda669f1f51b6f9330d1ff28fd69afe5f9ef5331b5234ff 0 printf '1 2 3 4\n3 4 5 6\n' | sx classify -
a396e060f31dc702fc05162834e2a63fb346fac6373970754601e3aa86d910e0 0 sx certify ears fixtures:ziegler_b2
# one facet order, recorded before `_facet_masks` took the order of
# `facets` and the readers of the ridge table's views read the table
# itself: a dual tree that branches, printed in `facets` order; a sum glued
# along boundary facets, and one refused because its ridge is interior;
# and the k = 0 closure, the simplex on the vertex set
19b03661112c2d93099eff0dda921c9c8ad56c7b274b3811c56e43378b802165 0 printf '3 1 2\n1 2 9\n2 3 10\n1 3 6\n' | sx certify one-stacked -
ad05b727bfe3ab1fbdc2ca938c373a41afa0247f7e0187c06755e3df6818cf2d 0 sx sum fixtures:lutz_b1 <(sx generate klee-novik-bar 1 2) --facet1 '1 2 3' --facet2 'x1 x2 x4'
e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855 69 sx sum fixtures:lutz_b1 <(sx generate klee-novik-bar 1 2) --facet1 '2 3 4' --facet2 'x1 x2 x4'
d9f8e33a32d61defb8aa9387ee52df4b1b75537ef4f6dda619e242c88f205c79 1 sx stacked -k 0 fixtures:dfm_s3_16
3ba4069905bc67fc6aefe29c0e62503af7e725f319d94400418291ff231bb4b7 0 sx generate standard-sphere 3 | sx stacked -k 0 -
7d5b8ab93bad993bab1963e3add28c5974e935cff1e9c79a5ffa1762c106992d 0 sx bar -k 0 fixtures:lutz_s2_8
TABLE
echo "$rows rows, $differ differ"
[ "$differ" -eq 0 ]
